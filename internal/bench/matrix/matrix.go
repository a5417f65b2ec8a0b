package matrix

import (
	"fmt"
	"math"

	"vmdg/internal/cost"
	"vmdg/internal/sim"
)

// Sizes used in the paper.
const (
	Small = 512
	Large = 1024
)

// Multiply computes C = A·B with the linear (non-blocked, non-vectorized)
// algorithm and tallies its operations: per inner iteration one multiply,
// one add (2 FP ops), two loads and the accumulator traffic. The tally
// models the paper's i-j-k loop, whose inner loop walks B column-wise.
// The loop below runs the same products in i-k-j order so it streams
// rows of B; each element still sums its products in ascending k
// starting from +0, so the result is bit-identical to the i-j-k loop's.
func Multiply(a, b []float64, n int) ([]float64, cost.Counts) {
	if len(a) != n*n || len(b) != n*n {
		panic(fmt.Sprintf("matrix: operands %d,%d for n=%d", len(a), len(b), n))
	}
	c := make([]float64, n*n)
	var ops cost.Counts
	for i := 0; i < n; i++ {
		ci := c[i*n : (i+1)*n]
		for k := 0; k < n; k++ {
			aik := a[i*n+k]
			bk := b[k*n : (k+1)*n]
			for j := range ci {
				ci[j] += aik * bk[j]
			}
		}
		// Tally per row of output to keep the hot loop clean: n² inner
		// iterations per row batch of n outputs. The inner loop is two
		// flops plus trivial register-resident induction; the column walk
		// of B generates the benchmark's bus traffic.
		ops.FPOps += uint64(2 * n * n)
		ops.MemOps += uint64(n*n) / 4
		ops.IntOps += uint64(n*n) / 2
	}
	return c, ops
}

// GenOperand builds a deterministic matrix with entries in [-1, 1).
func GenOperand(seed uint64, n int) []float64 {
	rng := sim.NewRNG(seed)
	m := make([]float64, n*n)
	for i := range m {
		m[i] = 2*rng.Float64() - 1
	}
	return m
}

// Result summarizes a run.
type Result struct {
	N        int
	Counts   cost.Counts
	Checksum float64 // Frobenius norm of the product, for verification
}

// Run multiplies two generated n×n matrices.
func Run(seed uint64, n int) Result {
	a := GenOperand(seed, n)
	b := GenOperand(seed+1, n)
	c, ops := Multiply(a, b, n)
	var norm float64
	for _, v := range c {
		norm += v * v
	}
	return Result{N: n, Counts: ops, Checksum: math.Sqrt(norm)}
}

// Profile captures the benchmark for simulator replay: reps multiplications
// at size n (the paper repeats each test ≥50 times; replay makes that
// cheap).
func Profile(seed uint64, n, reps int) (*cost.Profile, Result) {
	res := Run(seed, n)
	m := cost.NewMeter(fmt.Sprintf("matrix-%d", n))
	for r := 0; r < reps; r++ {
		m.Ops(res.Counts)
	}
	return m.Profile(), res
}
