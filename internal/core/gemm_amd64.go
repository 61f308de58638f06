package core

// useAVX selects addRows4's AVX kernel. It is set once, at package init,
// from CPUID and XGETBV; tests clear it to run the Go loop on the same
// host.
var useAVX = hasAVX()

// hasAVX reports whether the CPU has AVX and the OS saves its registers.
func hasAVX() bool

// addRows4AVX is addRows4's kernel over s[:n] and the four code rows
// starting at codes, stride bytes apart; each row's first n codes must
// be readable, and it reads no others.
//
//go:noescape
func addRows4AVX(s *float64, n int, codes *int8, stride int, w0, w1, w2, w3 float64)
