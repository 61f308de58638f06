//go:build !amd64

package core

// useAVX stays false off amd64, where addRows4 runs its Go loop.
var useAVX bool

// addRows4AVX exists off amd64 only so addRows4 compiles; useAVX keeps it
// from being called.
func addRows4AVX(s *float64, n int, codes *int8, stride int, w0, w1, w2, w3 float64) {
	panic("core: no AVX kernel on this GOARCH")
}
