package bitset

// Matrix is a symmetric boolean relation over [0, n) stored as a half-size
// (lower-triangular) bit matrix, the representation used by the paper for
// interference graphs. It can grow dynamically, mirroring the incremental
// variable introduction of Sreedhar's Method III; the benchmark harness
// accounts for the reallocation overhead this causes (paper, Section IV-D).
type Matrix struct {
	bits      []uint64
	n         int
	allocated int // cumulative bytes ever allocated, for "measured" footprint
}

// NewMatrix returns an empty relation over [0, n).
func NewMatrix(n int) *Matrix {
	m := &Matrix{}
	m.GrowTo(n)
	return m
}

func triSize(n int) int { return n * (n + 1) / 2 }

func triIndex(i, j int) int {
	if i < j {
		i, j = j, i
	}
	return triSize(i) + j
}

// GrowTo extends the universe to at least n elements.
func (m *Matrix) GrowTo(n int) {
	if n <= m.n {
		return
	}
	words := (triSize(n) + wordBits - 1) / wordBits
	if words > len(m.bits) {
		nb := make([]uint64, words)
		copy(nb, m.bits)
		m.bits = nb
		m.allocated += words * 8
	}
	m.n = n
}

// Set records that i and j are related.
func (m *Matrix) Set(i, j int) {
	if i >= m.n || j >= m.n {
		max := i
		if j > max {
			max = j
		}
		m.GrowTo(max + 1)
	}
	k := triIndex(i, j)
	m.bits[k/wordBits] |= 1 << (uint(k) % wordBits)
}

// Has reports whether i and j are related.
func (m *Matrix) Has(i, j int) bool {
	if i < 0 || j < 0 || i >= m.n || j >= m.n {
		return false
	}
	k := triIndex(i, j)
	return m.bits[k/wordBits]&(1<<(uint(k)%wordBits)) != 0
}

// AllocatedBytes returns the cumulative bytes allocated over the lifetime of
// the matrix, including growth reallocations (the paper's "measured"
// footprint for dynamically grown matrices).
func (m *Matrix) AllocatedBytes() int { return m.allocated }

// EvaluatedBytes is the paper's perfect-memory formula for a half-size bit
// matrix over nvars variables: ceil(nvars/8) * nvars / 2.
func EvaluatedBytes(nvars int) int { return (nvars + 7) / 8 * nvars / 2 }
