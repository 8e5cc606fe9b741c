package harness

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// mutexProfileFraction is the sampling rate armed while a mutex profile
// is requested: 1-in-5 contention events, cheap enough for benchmark
// runs yet dense enough to rank the hot locks.
const mutexProfileFraction = 5

// ProfileFlags registers -cpuprofile, -memprofile and -mutexprofile on fs
// and returns StartProfiles bound to the paths they are given.
func ProfileFlags(fs *flag.FlagSet) (start func() (stop func(), err error)) {
	cpu := fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
	mem := fs.String("memprofile", "", "write a heap profile (post-GC, live objects) to this file")
	mutex := fs.String("mutexprofile", "", "write a mutex-contention profile to this file")
	return func() (func(), error) { return StartProfiles(*cpu, *mem, *mutex) }
}

// StartProfiles arms the requested pprof outputs (each path may be
// empty to skip that profile) and returns a stop function that flushes
// and closes them, reporting a failed write on stderr — by then the run
// it profiled is over, and its verdict stands. The CPU profile streams
// for the whole window; the heap and mutex profiles are snapshotted at
// stop time — after a GC for the heap, so the profile shows live memory,
// not garbage. Commands call this around the measured run:
//
//	stop, err := harness.StartProfiles(cpu, mem, mutex)
//	...
//	defer stop()
func StartProfiles(cpu, mem, mutex string) (stop func(), err error) {
	var cpuF *os.File
	if cpu != "" {
		cpuF, err = os.Create(cpu)
		if err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuF); err != nil {
			cpuF.Close()
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
	}
	prevFraction := 0
	if mutex != "" {
		prevFraction = runtime.SetMutexProfileFraction(mutexProfileFraction)
	}
	// write snapshots one profile into path, reporting what fails.
	write := func(kind, path string, profile func(f *os.File) error) {
		f, err := os.Create(path)
		if err == nil {
			err = profile(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s profile: %v\n", kind, err)
		}
	}
	return func() {
		if cpuF != nil {
			pprof.StopCPUProfile()
			if err := cpuF.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "cpu profile:", err)
			}
		}
		if mem != "" {
			runtime.GC() // profile live objects, not collectable garbage
			write("mem", mem, func(f *os.File) error { return pprof.WriteHeapProfile(f) })
		}
		if mutex != "" {
			write("mutex", mutex, func(f *os.File) error { return pprof.Lookup("mutex").WriteTo(f, 0) })
			runtime.SetMutexProfileFraction(prevFraction)
		}
	}, nil
}
