//go:build amd64 && !purego

package dtw

// envBytesPass is the SSE2 implementation of envBytesPassGo
// (envbytes_amd64.s): PMAXUB and PMINUB over 16 bytes at a time. Each block
// loads up[i:i+16] and up[i+s:i+s+16] before it stores, as the Go loop reads
// every up[i+s] before it writes it, so the two agree on any s ≥ 1, a step
// below the block width included (TestEnvBytesPassAsmMatchesGo).
//
//go:noescape
func envBytesPass(up, lo []byte, s, m int)
