package uoi

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

func TestForEachBootstrapFastFail(t *testing.T) {
	// An error must cancel dispatch: with 4 workers, an instant failure at
	// k=0 and slow successes elsewhere, only the in-flight bootstraps run —
	// nothing new is claimed once the error lands.
	const workers, n = 4, 100
	boom := errors.New("boom")
	var calls atomic.Int64
	err := forEachBootstrap(workers, n, func(k int) error {
		calls.Add(1)
		if k == 0 {
			return boom
		}
		time.Sleep(50 * time.Millisecond)
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if c := calls.Load(); c > workers {
		t.Fatalf("%d bootstraps ran after failure; cancellation broken", c)
	}
}

func TestForEachBootstrapSequentialStopsAtError(t *testing.T) {
	boom := errors.New("boom")
	var calls int
	err := forEachBootstrap(1, 10, func(k int) error {
		calls++
		if k == 3 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) || calls != 4 {
		t.Fatalf("err = %v after %d calls, want boom after 4", err, calls)
	}
}
