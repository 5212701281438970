package serve

import "sync"

// HoldForTest makes every request s admits block until release is called,
// so the black-box tests can fill the in-flight slots deterministically.
func HoldForTest(s *Server) (release func()) {
	hold := make(chan struct{})
	s.holdForTest = hold
	var once sync.Once
	return func() { once.Do(func() { close(hold) }) }
}
