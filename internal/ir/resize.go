package ir

// Resize returns s with length n, reusing its backing array when it is
// large enough. The contents are unspecified; a caller that needs them
// zeroed clears them.
func Resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Reuse is Resize that first zeroes the elements past n, so a shrunken
// array keeps nothing of a previous, larger function reachable. The first
// n elements are unspecified.
func Reuse[T any](s []T, n int) []T {
	if n < len(s) {
		clear(s[n:])
	}
	return Resize(s, n)
}
