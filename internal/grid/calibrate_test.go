package grid

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"vmdg/internal/hw"
	"vmdg/internal/vmm"
)

// TestCalibrationConcurrentResolve: goroutines resolving one
// environment's classes at once split the work claim-then-wait — every
// key is calibrated exactly once, every goroutine sees values identical
// to a serial calibration, and a failing key's error reaches every
// waiter. The seed is used by no other test, so nothing is memoized
// before the goroutines start.
func TestCalibrationConcurrentResolve(t *testing.T) {
	const (
		seed    = 0xca11b8
		every   = 64
		workers = 4
	)
	prof := profByName(t, "vmplayer")
	// A zero-frequency CPU fails machine validation: a key that errors.
	classes := append(Classes(), Class{Name: "broken", CPU: hw.CPU{Cores: 1}})
	broken := len(classes) - 1

	var mu sync.Mutex
	runs := map[string]int{}
	memo := &calMemo{compute: func(class *Class, prof vmm.Profile, seed uint64, every int, quick bool) (Calibration, error) {
		mu.Lock()
		runs[class.Name]++
		mu.Unlock()
		if class.Name == "broken" {
			time.Sleep(20 * time.Millisecond) // let the other goroutines queue on it
		}
		return calibrate(class, prof, seed, every, quick)
	}}

	want := make([]Calibration, broken)
	for ci := range want {
		cal, err := calibrate(&classes[ci], prof, seed, every, true)
		if err != nil {
			t.Fatal(err)
		}
		want[ci] = cal
	}
	_, wantErr := calibrate(&classes[broken], prof, seed, every, true)
	if wantErr == nil {
		t.Fatal("the broken class calibrated")
	}

	got := make([][]*Calibration, workers)
	errs := make([]error, workers)
	brokenErrs := make([]error, workers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			// Rotated orders make the goroutines claim different keys
			// first, the way shards of one environment meet their
			// classes in different orders.
			order := make([]int, broken)
			for j := range order {
				order[j] = (j + w) % broken
			}
			cals := make([]*Calibration, len(classes))
			errs[w] = memo.resolve(classes, order, prof, seed, every, true, cals)
			got[w] = cals
			brokenErrs[w] = memo.resolve(classes, []int{broken}, prof, seed, every, true, cals)
		}()
	}
	close(start)
	wg.Wait()

	for _, c := range classes {
		if runs[c.Name] != 1 {
			t.Errorf("class %s calibrated %d times, want exactly 1", c.Name, runs[c.Name])
		}
	}
	for w := 0; w < workers; w++ {
		if errs[w] != nil {
			t.Fatalf("goroutine %d: %v", w, errs[w])
		}
		for ci := range want {
			if got[w][ci] == nil || !reflect.DeepEqual(*got[w][ci], want[ci]) {
				t.Fatalf("goroutine %d, class %s: calibration differs from the serial one", w, classes[ci].Name)
			}
		}
		if brokenErrs[w] == nil || brokenErrs[w].Error() != wantErr.Error() {
			t.Fatalf("goroutine %d: broken key returned %v, want %v", w, brokenErrs[w], wantErr)
		}
	}
}
