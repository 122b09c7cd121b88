package repro_test

import (
	"os"
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestMain readies the runtime before any test or benchmark runs.
//
// MemStats counts the runtime's own heap allocations like the program's.
// Starting an OS thread puts 4–7 objects, about 5.8 kB, on the heap, and
// the first timer on a processor allocates that processor's timer heap,
// 16 B: the background scavenger sleeps on a timer after the collection
// every benchmark starts with. Either one inside the single measured
// iteration of a -benchtime 1x run reads as the benchmark's own, past the
// 1.1x allocation gate of a small row (BenchmarkReadTrace, 31 allocs/op)
// or the 0 of BenchmarkPlannerLookup. The runtime keeps idle threads and
// grown timer heaps, and reuses them.
func TestMain(m *testing.M) {
	warmRuntime(4 * runtime.GOMAXPROCS(0))
	os.Exit(m.Run())
}

// warmRuntime leaves the runtime with at least n idle threads and a timer
// heap on every processor: n goroutines each lock a thread of their own,
// and once all n hold one, they all sleep at once, spreading n timers over
// the processors, then unlock their threads and exit.
func warmRuntime(n int) {
	var locked, exited sync.WaitGroup
	release := make(chan struct{})
	locked.Add(n)
	exited.Add(n)
	for range n {
		go func() {
			defer exited.Done()
			runtime.LockOSThread()
			locked.Done()
			<-release
			time.Sleep(time.Millisecond)
			runtime.UnlockOSThread()
		}()
	}
	locked.Wait()
	close(release)
	exited.Wait()
}
