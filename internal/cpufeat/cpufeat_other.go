//go:build !amd64

package cpufeat

// AVX2 is false off amd64: every kernel takes its pure-Go loop.
const AVX2 = false
