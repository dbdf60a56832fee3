package wire

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/placer"
)

// canonicalGolden pins the full SHA-256 of canonical encodings: the
// pinned service requests (placer/testdata/pin_*_request.json) and
// every registered benchmark circuit encoded through FromCanon, whose
// hierarchies exercise the nested node encoding. Any change to field
// names, field order, omitempty behavior or normalization moves these
// hashes, and with them every cache key the service ever issued.
var canonicalGolden = map[string]string{
	"pin/miller_hbstar":    "97d972b7a4a758a6a61700eae9978d7e554ce1025903bdafc516947cdbc3865e",
	"pin/miller_portfolio": "1e230b046ff1c60c3af15410af7bc6c4be176e4828df16b658c958b9a30fcc65",
	"pin/miller_seqpair":   "8e3f1145d460b10f8304e582d057dafa2355059aaccc654426a1bc451871b9b6",
	"pin/n1000_seqpair":    "70f17805688e7384028e401b2fd1baae5f0b661d11dcfab23494e279038fc7c2",
	"pin/n120_temper":      "1124ff19eb3649404a0a225ad8dde7eab33e724a9041dfff4a95516371319ff5",
	"bench/biasynth":       "6487df7c5150a5e9cc698aa573979fb15d839c2e1b57ebc61fdd1ec982d75d1f",
	"bench/buffer":         "70b8d97037f64f49a8c431efeb40a13932e3c3e53fa59d5047a81be09928aae9",
	"bench/comparator_v2":  "2a327bf2c88cf75c8c6cae8543437eba743d37c7ccececc25daa320e276e4beb",
	"bench/folded":         "da8bd46bd97a3e0f6bb0b45a9cea4c120151b3b116a1796aa12ee638ed8ff6ab",
	"bench/folded_casc":    "5895d5515d6349a5668c94f133b9bd4f2987be142d54b7a62e670fe41e3d8c43",
	"bench/lnamixbias":     "30c9c0dd594c22dceac1b4ce2fd8c8247e00390245ee4a5f92cb718e25fedb04",
	"bench/miller":         "310fd0a3bccd00943252e60ad2cb829807845f2e7ca7ed04db2feae2898c5d6b",
	"bench/miller_v2":      "4d9595b2469838fc9ad86ee5516fa363ea89da6c3de692d70d7942301fbf35e2",
}

func sha(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestCanonicalHashGolden checks every canonical encoding against its
// pinned hash, and that the pinned set is exactly the current pin
// requests plus the current benchmark list.
func TestCanonicalHashGolden(t *testing.T) {
	got := map[string]string{}
	pins, err := filepath.Glob(filepath.Join("..", "..", "placer", "testdata", "pin_*_request.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range pins {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		req, err := DecodeRequest(data)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		c, err := req.Canonical()
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		name := strings.TrimSuffix(strings.TrimPrefix(filepath.Base(path), "pin_"), "_request.json")
		got["pin/"+name] = sha(c)
	}
	for _, name := range placer.BenchmarkNames() {
		p, err := placer.Benchmark(name)
		if err != nil {
			t.Fatal(err)
		}
		c, err := FromCanon(p).Canonical()
		if err != nil {
			t.Fatalf("bench %s: %v", name, err)
		}
		got["bench/"+name] = sha(c)
	}
	if len(got) != len(canonicalGolden) {
		t.Errorf("%d canonical encodings, %d pinned", len(got), len(canonicalGolden))
	}
	for key, h := range got {
		if want, ok := canonicalGolden[key]; !ok {
			t.Errorf("%s: hash %s is not pinned", key, h)
		} else if h != want {
			t.Errorf("%s: canonical hash %s, pinned %s", key, h, want)
		}
	}
}
