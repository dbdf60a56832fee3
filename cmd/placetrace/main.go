// Command placetrace renders a solve's flight recording as an SVG
// chart: per-rung cost trajectories and acceptance rates by annealing
// stage, with replica-exchange attempts marked where they happened.
//
// Usage:
//
//	placetrace [-in trace.json] [-out trace.svg]
//
// The input is wire trace JSON — what GET /v1/jobs/{id}/trace serves,
// what `analogplace -trace-out` writes, or a whole wire Result whose
// `trace` field is then used. '-' reads stdin / writes stdout.
//
//	analogplace -bench miller -method seqpair -temper-chains 4 \
//	  -exchange-every 2 -trace-out - | placetrace -in - -out miller.svg
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/render"
	"repro/internal/wire"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "placetrace:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("placetrace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	in := fs.String("in", "-", "trace JSON input: a wire Trace or a wire Result carrying one ('-' = stdin)")
	out := fs.String("out", "trace.svg", "SVG output path ('-' = stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q (all inputs are flags)", fs.Arg(0))
	}

	var data []byte
	var err error
	if *in == "-" {
		data, err = io.ReadAll(os.Stdin)
	} else {
		data, err = os.ReadFile(*in)
	}
	if err != nil {
		return err
	}
	tr, err := wire.DecodeTrace(data)
	if err != nil {
		return err
	}

	var w io.Writer
	var f *os.File
	if *out == "-" {
		w = stdout
	} else {
		f, err = os.Create(*out)
		if err != nil {
			return err
		}
		w = f
	}
	if err := render.ChartSVG(w, tr); err != nil {
		if f != nil {
			f.Close()
		}
		return err
	}
	if f != nil {
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "placetrace: wrote %s (%d events, method %s)\n", *out, len(tr.Events), tr.Algorithm)
	}
	return nil
}
