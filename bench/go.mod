// The benchmark is a module of its own, nested in the repository's, so that
// it has its own build file and `go build ./... && go test ./...` at the
// root leaves it out. Its path lies inside the parent's, which lets it
// import the parent's internal packages.
module wanamcast/bench

go 1.24

require wanamcast v0.0.0

replace wanamcast => ../
