package matrix

import (
	"math"
	"testing"
	"testing/quick"

	"vmdg/internal/cost"
)

func TestMultiplyIdentity(t *testing.T) {
	n := 8
	a := GenOperand(1, n)
	id := make([]float64, n*n)
	for i := 0; i < n; i++ {
		id[i*n+i] = 1
	}
	c, _ := Multiply(a, id, n)
	for i := range a {
		if math.Abs(c[i]-a[i]) > 1e-12 {
			t.Fatalf("A·I ≠ A at %d: %v vs %v", i, c[i], a[i])
		}
	}
	c2, _ := Multiply(id, a, n)
	for i := range a {
		if math.Abs(c2[i]-a[i]) > 1e-12 {
			t.Fatalf("I·A ≠ A at %d", i)
		}
	}
}

func TestMultiplyKnownProduct(t *testing.T) {
	// [1 2; 3 4]·[5 6; 7 8] = [19 22; 43 50]
	a := []float64{1, 2, 3, 4}
	b := []float64{5, 6, 7, 8}
	c, _ := Multiply(a, b, 2)
	want := []float64{19, 22, 43, 50}
	for i := range want {
		if c[i] != want[i] {
			t.Fatalf("c = %v, want %v", c, want)
		}
	}
}

func TestMultiplyAssociatesWithScalingProperty(t *testing.T) {
	// (αA)·B == α(A·B): checks the arithmetic path with random operands.
	f := func(seed uint16) bool {
		n := 6
		a := GenOperand(uint64(seed), n)
		b := GenOperand(uint64(seed)+9, n)
		scaled := make([]float64, len(a))
		for i := range a {
			scaled[i] = 2.5 * a[i]
		}
		ab, _ := Multiply(a, b, n)
		sab, _ := Multiply(scaled, b, n)
		for i := range ab {
			if math.Abs(sab[i]-2.5*ab[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestMultiplyPanicsOnBadShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on shape mismatch")
		}
	}()
	Multiply(make([]float64, 4), make([]float64, 9), 3)
}

func TestOpCountsScaleCubically(t *testing.T) {
	r1 := Run(1, 32)
	r2 := Run(1, 64)
	ratio := float64(r2.Counts.FPOps) / float64(r1.Counts.FPOps)
	if math.Abs(ratio-8) > 0.01 {
		t.Fatalf("FP ops ratio for 2x size = %v, want 8 (cubic)", ratio)
	}
	if r1.Counts.FPOps != uint64(2*32*32*32) {
		t.Fatalf("FP ops = %d, want 2n³", r1.Counts.FPOps)
	}
}

func TestMixIsFPDominatedWithMemoryComponent(t *testing.T) {
	// Figure 2's gentle slowdowns rely on Matrix being FP-heavy; the
	// naive loop's column walk keeps a visible memory share.
	res := Run(1, 128)
	mix := res.Counts.Mix()
	if mix.FP < 0.35 {
		t.Fatalf("FP share = %.3f, want ≥0.35", mix.FP)
	}
	if mix.Mem < 0.15 || mix.Mem > 0.45 {
		t.Fatalf("Mem share = %.3f, outside [0.15,0.45]", mix.Mem)
	}
}

func TestDeterministicChecksum(t *testing.T) {
	a := Run(5, 64)
	b := Run(5, 64)
	if a.Checksum != b.Checksum {
		t.Fatal("checksums diverged for identical seeds")
	}
	c := Run(6, 64)
	if a.Checksum == c.Checksum {
		t.Fatal("different seeds gave identical checksum")
	}
}

func TestProfileRepeats(t *testing.T) {
	p, res := Profile(1, 32, 5)
	want := res.Counts.Cycles() * 5
	if math.Abs(p.TotalCycles()-want) > want*1e-9 {
		t.Fatalf("profile cycles %v, want %v", p.TotalCycles(), want)
	}
	if p.OverallMix().FP == 0 {
		t.Fatal("profile lost FP share")
	}
	var _ cost.Counts = res.Counts
}

// multiplyIJK is the paper's i-j-k loop, kept as the reference the
// row-walking Multiply must match bit for bit.
func multiplyIJK(a, b []float64, n int) []float64 {
	c := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var sum float64
			for k := 0; k < n; k++ {
				sum += a[i*n+k] * b[k*n+j]
			}
			c[i*n+j] = sum
		}
	}
	return c
}

func TestMultiplyMatchesIJKExactly(t *testing.T) {
	for _, n := range []int{1, 2, 7, 33, 64} {
		a := GenOperand(uint64(100+n), n)
		b := GenOperand(uint64(200+n), n)
		got, _ := Multiply(a, b, n)
		want := multiplyIJK(a, b, n)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("n=%d: c[%d] = %v, i-j-k gives %v", n, i, got[i], want[i])
			}
		}
	}
}

func TestChecksumPinned(t *testing.T) {
	// The value the i-j-k loop produced: a change of loop order must not
	// move a single bit of Figure 2's verification checksum.
	const want = 0x407e19b4f85d72f4
	if got := math.Float64bits(Run(1, 128).Checksum); got != want {
		t.Fatalf("Run(1,128) checksum bits = %#x, want %#x", got, uint64(want))
	}
}
