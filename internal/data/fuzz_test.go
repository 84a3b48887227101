package data

import (
	"bytes"
	"testing"
)

// FuzzRapcolReader feeds the rapcol reader arbitrary bytes. Every Next
// must return an error or a batch that passes Validate and re-encodes
// through Writer; a panic, a hang or an out-of-memory crash is a
// failure. The seeds (a generated two-batch stream and the hostile
// streams of TestRapcolRejectsTruncated) run as a plain test.
func FuzzRapcolReader(f *testing.F) {
	g := NewGenerator(GenConfig{NumDense: 2, NumSparse: 2, Seed: 3})
	f.Add(encodeRapcol(f, g.NextBatch(8), g.NextBatch(3)))
	for _, tc := range hostileRapcolStreams(f) {
		f.Add(tc.stream)
	}
	f.Fuzz(func(t *testing.T, stream []byte) {
		r := NewReader(bytes.NewReader(stream))
		// Every accepted batch consumes at least one byte, so a stream
		// holds at most len(stream) batches.
		for i := 0; i <= len(stream); i++ {
			b, err := r.Next()
			if err != nil {
				return
			}
			if err := b.Validate(); err != nil {
				t.Fatalf("batch %d passed Next but not Validate: %v", i, err)
			}
			w := NewWriter(&bytes.Buffer{})
			if err := w.WriteBatch(b); err != nil {
				t.Fatalf("batch %d does not re-encode: %v", i, err)
			}
			if err := w.Flush(); err != nil {
				t.Fatalf("batch %d does not re-encode: %v", i, err)
			}
		}
		t.Fatalf("reader returned more than %d batches from %d bytes", len(stream)+1, len(stream))
	})
}
