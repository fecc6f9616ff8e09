package experiments

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzDecodeReport feeds arbitrary bytes to DecodeReport: it must
// return an error or a report, never panic. An accepted report must
// render, and its re-encoding must be a fixed point — decoding it again
// succeeds and encodes to the same bytes — so whatever skiacmp reads,
// skiaexp could have written. Seeds (the fig14 golden report and
// damaged variants of it) live in testdata/fuzz; run
//
//	go test ./internal/experiments -run '^$' -fuzz FuzzDecodeReport
//
// to explore beyond them.
func FuzzDecodeReport(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		rep, err := DecodeReport(data)
		if err != nil {
			return
		}
		_ = rep.String()
		first, err := json.Marshal(rep)
		if err != nil {
			t.Fatalf("accepted report does not re-encode: %v", err)
		}
		back, err := DecodeReport(first)
		if err != nil {
			t.Fatalf("re-encoded report does not decode: %v\n%s", err, first)
		}
		second, err := json.Marshal(back)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("re-encoding is not a fixed point:\n%s\n!=\n%s", first, second)
		}
	})
}
