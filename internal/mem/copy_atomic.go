//go:build !amd64 || race

package mem

import "sync/atomic"

// bufWord is one buffer word: an atomic uint64.
type bufWord = atomic.Uint64

// Buffers are copied word by word through sync/atomic in this build, which
// is stronger than the safe registers the paper needs. Plain copies are
// sound only where copy_plain.go's argument holds (amd64's TSO order); on
// arm64 a plain load may pass a later load-acquire. Under -race the atomic
// copies keep the race detector quiet about the races the algorithm
// tolerates, so it checks everything above this package.

// ReadBuf implements Buffers.
func (b *RealBuffers) ReadBuf(_, buf int, dst []uint64) {
	words := b.words[buf*b.w:]
	for i := range dst {
		dst[i] = words[i].Load()
	}
}

// WriteBuf implements Buffers.
func (b *RealBuffers) WriteBuf(_, buf int, src []uint64) {
	words := b.words[buf*b.w:]
	for i, v := range src {
		words[i].Store(v)
	}
}
