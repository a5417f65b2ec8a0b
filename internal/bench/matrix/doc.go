// Package matrix implements the paper's Matrix benchmark (§2): the
// multiplication of two square matrices of float64 with the plain
// non-optimized triple loop, at the paper's two sizes (512² and 1024²).
// It measures floating-point performance with a heavy streaming-memory
// component (the naive loop order walks one operand column-wise). The
// operation counts model that column-walking loop; the host itself walks
// rows (i-k-j) and produces bit-identical sums.
package matrix
