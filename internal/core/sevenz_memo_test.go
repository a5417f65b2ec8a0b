package core

import (
	"reflect"
	"sync"
	"testing"

	"vmdg/internal/bench/sevenz"
	"vmdg/internal/cost"
)

func TestSevenzCaptureConcurrent(t *testing.T) {
	const n = 8
	seed, block, passes := uint64(0x7a11), 64<<10, 2
	var (
		start sync.WaitGroup
		done  sync.WaitGroup
	)
	start.Add(1)
	profs := make([]*cost.Profile, n)
	runs := make([]sevenz.Result, n)
	for g := 0; g < n; g++ {
		done.Add(1)
		go func() {
			defer done.Done()
			start.Wait()
			profs[g], runs[g] = sevenzCapture(seed, block, passes)
		}()
	}
	start.Done()
	done.Wait()

	wantProf, wantRun := sevenz.Profile(seed, block, passes)
	for g := range profs {
		if profs[g] != profs[0] {
			t.Fatalf("goroutine %d got profile %p, goroutine 0 got %p: capture ran twice", g, profs[g], profs[0])
		}
		if !reflect.DeepEqual(profs[g], wantProf) || runs[g] != wantRun {
			t.Fatalf("goroutine %d: memoized capture differs from sevenz.Profile", g)
		}
	}
	if p, _ := sevenzCapture(seed, block, passes+1); p == profs[0] {
		t.Fatal("distinct keys share one capture")
	}
}
