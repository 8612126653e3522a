// Lock-discipline violations: a lock leaked on one path, blocking
// operations (I/O, channels, transitively-blocking module calls) while
// a mutex is held.
package locks

import (
	"os"
	"sync"
	"time"
)

type S struct {
	mu sync.Mutex
	f  *os.File
	ch chan int
	n  int
}

// LeakOnBranch releases on the early-return path only.
func (s *S) LeakOnBranch(cond bool) int {
	s.mu.Lock() // want `s.mu is acquired here but not released on every path to return`
	if cond {
		s.mu.Unlock()
		return 0
	}
	return s.n
}

// WriteHeld performs file I/O under the lock.
func (s *S) WriteHeld(p []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.f.Write(p) // want `call to Write \(may block\) while holding s.mu`
}

// SendHeld performs a channel send under the lock.
func (s *S) SendHeld(v int) {
	s.mu.Lock()
	s.ch <- v // want `channel send while holding s.mu`
	s.mu.Unlock()
}

// SleepHeld blocks transitively: helper sleeps, and the call graph
// knows it.
func (s *S) SleepHeld() {
	s.mu.Lock()
	defer s.mu.Unlock()
	helper() // want `call to helper \(may block\) while holding s.mu`
}

func helper() { time.Sleep(time.Millisecond) }

// WriteGenericHeld blocks through a generic helper: the instantiated
// callee resolves back to its declaration, which writes a file.
func (s *S) WriteGenericHeld(p []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	writeAll[[]byte](s.f, p) // want `call to writeAll \(may block\) while holding s.mu`
}

func writeAll[B ~[]byte](f *os.File, p B) {
	f.Write(p)
}
