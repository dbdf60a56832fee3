package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/circuits"
	"repro/internal/geom"
	"repro/internal/service"
	"repro/internal/wire"
	"repro/placer"
)

// cli runs the command in-process, capturing stdout.
func cli(t *testing.T, args ...string) (string, error) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	err := run(args, &stdout, &stderr)
	return stdout.String(), err
}

// TestAlgorithmsFlag: -algorithms lists every registry engine, the
// portfolio meta-method and the deterministic esf/rsf methods.
func TestAlgorithmsFlag(t *testing.T) {
	out, err := cli(t, "-algorithms")
	if err != nil {
		t.Fatal(err)
	}
	for _, info := range placer.Algorithms() {
		if !strings.Contains(out, info.Name) {
			t.Errorf("listing misses registered algorithm %q:\n%s", info.Name, out)
		}
	}
	for _, name := range []string{"portfolio", "esf", "rsf", "hierarchical"} {
		if !strings.Contains(out, name) {
			t.Errorf("listing misses %q:\n%s", name, out)
		}
	}
}

// TestGeneticEndToEnd: the memetic registry entry is a first-class
// CLI citizen — -algorithms lists it, and a wire-path solve with
// -method genetic:seqpair produces a legal, constraint-satisfying
// placement over every module.
func TestGeneticEndToEnd(t *testing.T) {
	out, err := cli(t, "-algorithms")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "genetic:seqpair") || !strings.Contains(out, "genetic:absolute") {
		t.Fatalf("-algorithms misses the genetic engines:\n%s", out)
	}

	resOut := filepath.Join(t.TempDir(), "genetic.json")
	if _, err := cli(t, "-bench", "miller", "-method", "genetic:seqpair", "-seed", "2", "-json-out", resOut); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(resOut)
	if err != nil {
		t.Fatal(err)
	}
	var res wire.Result
	if err := json.Unmarshal(data, &res); err != nil {
		t.Fatal(err)
	}
	if res.Method != "genetic:seqpair" {
		t.Fatalf("result method %q, want genetic:seqpair", res.Method)
	}
	if len(res.Placement) != 9 { // the Miller op amp's module count
		t.Fatalf("placed %d modules, want 9", len(res.Placement))
	}
	if !res.Legal {
		t.Fatal("genetic placement overlaps")
	}
	if len(res.Violations) != 0 {
		t.Fatalf("genetic seqpair violates constraints: %v", res.Violations)
	}
}

// TestUnknownMethodSharedError: a typo'd method must fail with the
// placer registry's one shared message, with or without -json-out
// (the daemon shares it through wire.Options.Validate — see the
// service package's registry test).
func TestUnknownMethodSharedError(t *testing.T) {
	want := placer.ErrUnknownAlgorithm("sorcery").Error()
	if _, err := cli(t, "-bench", "miller", "-method", "sorcery"); err == nil || err.Error() != want {
		t.Errorf("plain run: got %v, want %q", err, want)
	}
	if _, err := cli(t, "-bench", "miller", "-method", "sorcery", "-json-out", os.DevNull); err == nil || err.Error() != want {
		t.Errorf("-json-out run: got %v, want %q", err, want)
	}
}

// TestBreakdownInTextOutput: the human output surfaces the per-term
// cost breakdown, with or without -json-out.
func TestBreakdownInTextOutput(t *testing.T) {
	out, err := cli(t, "-bench", "miller", "-method", "seqpair")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "cost breakdown:") || !strings.Contains(out, "hpwl=") {
		t.Errorf("plain output misses the cost breakdown:\n%s", out)
	}
	out, err = cli(t, "-bench", "miller", "-method", "seqpair",
		"-json-out", filepath.Join(t.TempDir(), "res.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "cost breakdown:") || !strings.Contains(out, "area=") {
		t.Errorf("-json-out output misses the cost breakdown:\n%s", out)
	}
}

// TestPinCLIVsDaemonVsGolden is the CLI leg of the refactor pin: the
// CLI's wire mode, the placed daemon's HTTP path, and the checked-in
// pre-refactor fixture must all agree bit for bit on the Miller
// seqpair placement.
func TestPinCLIVsDaemonVsGolden(t *testing.T) {
	dir := t.TempDir()

	// CLI leg: solve through analogplace's wire mode.
	resPath := filepath.Join(dir, "res.json")
	if _, err := cli(t, "-bench", "miller", "-method", "seqpair", "-json-out", resPath); err != nil {
		t.Fatal(err)
	}
	cliRes := readResult(t, resPath)

	// Daemon leg: emit the very request the CLI solved (-json-req) and
	// POST it to a placed-equivalent HTTP server.
	reqPath := filepath.Join(dir, "req.json")
	if _, err := cli(t, "-bench", "miller", "-method", "seqpair", "-json-req", reqPath); err != nil {
		t.Fatal(err)
	}
	reqBody, err := os.ReadFile(reqPath)
	if err != nil {
		t.Fatal(err)
	}
	sched := service.New(service.Config{Workers: 1})
	defer sched.Close()
	srv := httptest.NewServer(service.NewHandler(sched))
	defer srv.Close()
	httpRes, err := http.Post(srv.URL+"/v1/place?wait=1", "application/json", bytes.NewReader(reqBody))
	if err != nil {
		t.Fatal(err)
	}
	defer httpRes.Body.Close()
	if httpRes.StatusCode != http.StatusOK {
		t.Fatalf("daemon status %d", httpRes.StatusCode)
	}
	var view struct {
		Result *wire.Result `json:"result"`
	}
	if err := json.NewDecoder(httpRes.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	if view.Result == nil {
		t.Fatal("daemon job has no result")
	}

	// Pre-refactor leg: the golden fixture captured before the placer
	// API existed.
	golden := readResult(t, filepath.Join("..", "..", "placer", "testdata", "pin_miller_seqpair_result.json"))

	for _, leg := range []struct {
		name string
		res  *wire.Result
	}{{"daemon", view.Result}, {"pre-refactor golden", golden}} {
		if cliRes.Cost != leg.res.Cost {
			t.Errorf("CLI cost %v != %s cost %v", cliRes.Cost, leg.name, leg.res.Cost)
		}
		if len(cliRes.Placement) != len(leg.res.Placement) {
			t.Fatalf("CLI placed %d modules, %s %d", len(cliRes.Placement), leg.name, len(leg.res.Placement))
		}
		for i := range cliRes.Placement {
			if cliRes.Placement[i] != leg.res.Placement[i] {
				t.Fatalf("module %d: CLI %+v != %s %+v", i, cliRes.Placement[i], leg.name, leg.res.Placement[i])
			}
		}
	}
}

func readResult(t *testing.T, path string) *wire.Result {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	res := &wire.Result{}
	if err := json.Unmarshal(data, res); err != nil {
		t.Fatal(err)
	}
	return res
}

// TestFlagValidation keeps the CLI's strict flag handling pinned
// through the FlagSet restructure.
func TestFlagValidation(t *testing.T) {
	cases := [][]string{
		{"positional"},
		{"-workers", "0"},
		{"-wire", "-1"},
		{"-outline", "400x300junk"},
		{"-json", ""},
		{"-method", "esf", "-json-out", "-"},
		{"-json-req", "-", "-json-out", "-"},
	}
	for _, args := range cases {
		if _, err := cli(t, args...); err == nil {
			t.Errorf("%v: accepted, want error", args)
		}
	}
}

// TestPlainMatchesJSONOut: for every registered algorithm and the
// portfolio, the coordinates a plain -v run prints are the placement
// -json-out writes for the same flags.
func TestPlainMatchesJSONOut(t *testing.T) {
	methods := []string{wire.MethodPortfolio}
	for _, info := range placer.Algorithms() {
		methods = append(methods, info.Name)
	}
	for _, method := range methods {
		plain, err := cli(t, "-bench", "miller", "-method", method, "-v")
		if err != nil {
			t.Fatalf("%s plain: %v", method, err)
		}
		resPath := filepath.Join(t.TempDir(), "res.json")
		if _, err := cli(t, "-bench", "miller", "-method", method, "-json-out", resPath); err != nil {
			t.Fatalf("%s -json-out: %v", method, err)
		}
		got := strings.Join(coordLines(plain), "\n")
		want := strings.Join(coordLines(printed(t, placementOf(readResult(t, resPath)))), "\n")
		if got != want {
			t.Errorf("%s: plain coordinates\n%s\n-json-out placement\n%s", method, got, want)
		}
	}
}

// printed renders a placement as -v does.
func printed(t *testing.T, pl geom.Placement) string {
	t.Helper()
	var b bytes.Buffer
	printCoords(&b, pl)
	return b.String()
}

// TestUnknownBenchOneMessage: an unknown -bench fails with one message
// for the annealing methods, with or without -json-out, and for the
// deterministic ones.
func TestUnknownBenchOneMessage(t *testing.T) {
	_, want := circuits.ByName("nosuch")
	if want == nil {
		t.Fatal("unknown benchmark accepted")
	}
	for _, args := range [][]string{
		{"-method", "seqpair"},
		{"-method", "seqpair", "-json-out", os.DevNull},
		{"-method", "esf"},
	} {
		_, err := cli(t, append([]string{"-bench", "nosuch"}, args...)...)
		if err == nil || err.Error() != want.Error() {
			t.Errorf("%v: got %v, want %q", args, err, want)
		}
	}
}
