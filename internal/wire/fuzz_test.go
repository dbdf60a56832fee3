package wire

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzDecodeProblem fuzzes the strict decoder: arbitrary bytes must
// never panic, and whatever decodes successfully must round-trip
// canonically — encode(decode(b)) is a fixed point of the decoder.
// The checked-in corpus under testdata/fuzz/FuzzDecodeProblem seeds
// the interesting shapes; plain `go test` replays corpus + seeds,
// `go test -fuzz=FuzzDecodeProblem ./internal/wire` explores.
func FuzzDecodeProblem(f *testing.F) {
	seeds := []string{
		``,
		`{}`,
		`null`,
		`[]`,
		`{"version":1,"modules":[{"name":"A","w":4,"h":2}],"objective":{}}`,
		`{"version":1,"modules":[{"name":"A","w":4,"h":2},{"name":"B","w":4,"h":2}],` +
			`"symmetry":[{"pairs":[[0,1]]}],"nets":[[0,1]],"objective":{"wire_weight":1}}`,
		`{"version":1,"modules":[{"name":"A","w":1,"h":1}],"hierarchy":{"name":"r","devices":["A"]},"objective":{}}`,
		`{"version":2,"modules":[{"name":"A","w":1,"h":1}],"objective":{}}`,
		`{"version":1,"modules":[{"name":"A","w":1,"h":1}],"objective":{"outline_w":10,"outline_h":10}}`,
		`{"version":1,"modules":[{"name":"A","w":1,"h":1}],"power":[1.5],"objective":{}}`,
		`{"version":1,"modules":[{"name":"A","w":-1,"h":1}],"objective":{}}`,
		`{"version":1,"modules":[{"name":"A","w":1,"h":1}],"nets":[[0,0]],"objective":{}}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := DecodeProblem(data) // must not panic, ever
		if err != nil {
			return
		}
		// Valid decode ⇒ canonical round-trip is exact.
		c1, err := p.Canonical()
		if err != nil {
			t.Fatalf("decoded problem fails to encode: %v\ninput: %q", err, data)
		}
		p2, err := DecodeProblem(c1)
		if err != nil {
			t.Fatalf("canonical encoding fails to decode: %v\ncanonical: %s", err, c1)
		}
		c2, err := p2.Canonical()
		if err != nil {
			t.Fatalf("re-decoded problem fails to encode: %v", err)
		}
		if !bytes.Equal(c1, c2) {
			t.Fatalf("canonical encoding not a fixed point:\nfirst:  %s\nsecond: %s", c1, c2)
		}
		h1, err := p.Hash()
		if err != nil {
			t.Fatal(err)
		}
		h2, err := p2.Hash()
		if err != nil {
			t.Fatal(err)
		}
		if h1 != h2 {
			t.Fatalf("hash changed across canonical round-trip: %s vs %s", h1, h2)
		}
	})
}

// embeddedKeyBody spells a problem's fields under a "Problem" key, as
// if the Go struct layout leaked into the format. It must be rejected
// as an unknown field.
const embeddedKeyBody = `{"problem":{"version":1,"Problem":{"modules":[{"name":"A","w":4,"h":2}],"objective":{}}},"options":{}}`

// FuzzDecodeRequest fuzzes the request decoder: arbitrary bytes must
// never panic, a decoded request's canonical encoding must be a fixed
// point of the decoder, and on decoded (hence normalized) requests the
// fast cache-key path HashNormalized must agree with Hash. The pinned
// service requests seed the corpus.
func FuzzDecodeRequest(f *testing.F) {
	pins, err := filepath.Glob(filepath.Join("..", "..", "placer", "testdata", "pin_*_request.json"))
	if err != nil {
		f.Fatal(err)
	}
	for _, path := range pins {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	for _, s := range []string{
		``,
		`{}`,
		embeddedKeyBody,
		`{"problem":{"modules":[{"name":"A","w":4,"h":2}],"objective":{}},"options":{"method":"bstar","timeout_ms":5}}`,
		`{"problem":{"version":1,"modules":[{"name":"A","w":4,"h":2},{"name":"B","w":4,"h":2}],` +
			`"symmetry":[{"pairs":[[1,0]]}],"nets":[[1,0]],"objective":{"wire_weight":1}},` +
			`"options":{"workers":2,"temper_chains":3,"exchange_every":2}}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := DecodeRequest(data) // must not panic, ever
		if err != nil {
			return
		}
		c1, err := r.Canonical()
		if err != nil {
			t.Fatalf("decoded request fails to encode: %v\ninput: %q", err, data)
		}
		r2, err := DecodeRequest(c1)
		if err != nil {
			t.Fatalf("canonical encoding fails to decode: %v\ncanonical: %s", err, c1)
		}
		c2, err := r2.Canonical()
		if err != nil {
			t.Fatalf("re-decoded request fails to encode: %v", err)
		}
		if !bytes.Equal(c1, c2) {
			t.Fatalf("canonical encoding not a fixed point:\nfirst:  %s\nsecond: %s", c1, c2)
		}
		h, err := r.Hash()
		if err != nil {
			t.Fatal(err)
		}
		hn, err := r.HashNormalized()
		if err != nil {
			t.Fatal(err)
		}
		if h != hn {
			t.Fatalf("HashNormalized %s disagrees with Hash %s on a decoded request\ninput: %q", hn, h, data)
		}
	})
}

// FuzzDecodeBatchRequest fuzzes the batch decoder: arbitrary bytes
// must never panic, and every item of a decoded batch must reach a
// canonical fixed point — re-submitting the items' canonical
// encodings as a batch decodes to the same canonical items — with
// HashNormalized agreeing with Hash. A two-item batch of the Miller
// pin request seeds the corpus.
func FuzzDecodeBatchRequest(f *testing.F) {
	pin, err := os.ReadFile(filepath.Join("..", "..", "placer", "testdata", "pin_miller_seqpair_request.json"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte(`{"items":[` + string(pin) + `,` + string(pin) + `]}`))
	for _, s := range []string{
		``,
		`{}`,
		`{"items":[]}`,
		`{"items":[{}]}`,
		`{"items":[` + embeddedKeyBody + `]}`,
		`{"items":[{"problem":{"modules":[{"name":"A","w":4,"h":2}],"objective":{}},"options":{"method":"bstar"}},` +
			`{"problem":{"modules":[{"name":"B","w":2,"h":4}],"objective":{}},"options":{"seed":7,"timeout_ms":5}}]}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := DecodeBatchRequest(data) // must not panic, ever
		if err != nil {
			return
		}
		canon := make([][]byte, len(b.Items))
		for i := range b.Items {
			if canon[i], err = b.Items[i].Canonical(); err != nil {
				t.Fatalf("decoded item %d fails to encode: %v\ninput: %q", i, err, data)
			}
			h, err := b.Items[i].Hash()
			if err != nil {
				t.Fatal(err)
			}
			hn, err := b.Items[i].HashNormalized()
			if err != nil {
				t.Fatal(err)
			}
			if h != hn {
				t.Fatalf("item %d: HashNormalized %s disagrees with Hash %s\ninput: %q", i, hn, h, data)
			}
		}
		again := []byte(`{"items":[` + string(bytes.Join(canon, []byte(","))) + `]}`)
		b2, err := DecodeBatchRequest(again)
		if err != nil {
			t.Fatalf("canonical items fail to decode as a batch: %v\nbatch: %s", err, again)
		}
		if len(b2.Items) != len(b.Items) {
			t.Fatalf("re-decoded batch has %d items, want %d", len(b2.Items), len(b.Items))
		}
		for i := range b2.Items {
			c2, err := b2.Items[i].Canonical()
			if err != nil {
				t.Fatalf("re-decoded item %d fails to encode: %v", i, err)
			}
			if !bytes.Equal(canon[i], c2) {
				t.Fatalf("item %d: canonical encoding not a fixed point:\nfirst:  %s\nsecond: %s", i, canon[i], c2)
			}
		}
	})
}
