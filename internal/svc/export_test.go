package svc

// SessionCount returns how many sessions the dedup table currently holds
// (bounded by ServerConfig.MaxSessions).
func (s *Server) SessionCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.sessions)
}
