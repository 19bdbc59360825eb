package core

import (
	"runtime"
	"sync"
)

// fanOut runs f(i) for every i in [0, n) across a bounded worker pool,
// workers striding the index space (the textmine kernel's discipline).
// Callers must write results into slot-indexed slices so the output is
// independent of goroutine scheduling. workers <= 0 defaults to
// GOMAXPROCS; workers == 1 (or n < 2) runs inline with no goroutines.
func fanOut(n, workers int, f func(i int)) {
	fanOutWorkers(n, workers, func(_, i int) { f(i) })
}

// fanOutWorkers is fanOut that also hands f the index w of the worker
// running item i, in [0, workers) after the default is applied. A
// worker runs its items one at a time, so per-worker buffers indexed by
// w need no locking.
func fanOutWorkers(n, workers int, f func(w, i int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			f(0, i)
		}
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += workers {
				f(w, i)
			}
		}(w)
	}
	wg.Wait()
}
