package isa

import "testing"

// FuzzLengthAtMatchesDecode holds the Shadow Branch Decoder's
// boundary-only length decoder to the full decoder on arbitrary bytes
// at arbitrary offsets: LengthAt is TryDecode(...).Len where a valid
// instruction starts and 0 elsewhere, TryDecode fails exactly where
// Decode errs, and a decoded instruction never runs past the bytes it
// was given or past MaxInstLen. The seed corpus is under testdata/fuzz.
func FuzzLengthAtMatchesDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, code []byte, off int) {
		got := LengthAt(code, off)
		if off < 0 || off >= len(code) {
			if got != 0 {
				t.Fatalf("LengthAt(% x, %d) = %d outside the code", code, off, got)
			}
			return
		}
		in, ok := TryDecode(code[off:], 0x1000)
		full, err := Decode(code[off:], 0x1000)
		if ok != (err == nil) {
			t.Fatalf("TryDecode ok=%v but Decode err=%v for % x @%d", ok, err, code, off)
		}
		if !ok {
			if got != 0 {
				t.Fatalf("LengthAt = %d where no instruction decodes: % x @%d", got, code, off)
			}
			return
		}
		if in != full {
			t.Fatalf("TryDecode %+v, Decode %+v for % x @%d", in, full, code, off)
		}
		if got != int(in.Len) {
			t.Fatalf("LengthAt = %d, TryDecode length %d for % x @%d", got, in.Len, code, off)
		}
		if got <= 0 || got > len(code)-off || got > MaxInstLen {
			t.Fatalf("length %d overruns: % x @%d", got, code, off)
		}
	})
}
