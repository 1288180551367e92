package uoi

import "sync"

// forEachBootstrap runs fn(k) for k in [0, n) across at most `workers`
// goroutines (1 = sequential). Bootstraps are embarrassingly parallel — the
// paper's P_B parallelism — and every k derives its own RNG stream, so the
// result is identical at any worker count. The first error wins.
func forEachBootstrap(workers, n int, fn func(k int) error) error {
	if workers <= 1 || n <= 1 {
		for k := 0; k < n; k++ {
			if err := fn(k); err != nil {
				return err
			}
		}
		return nil
	}
	if workers > n {
		workers = n
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
		next     int
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				if firstErr != nil || next >= n {
					mu.Unlock()
					return
				}
				k := next
				next++
				mu.Unlock()
				if err := fn(k); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					return
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}
