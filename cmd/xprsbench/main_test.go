package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"xprs"
)

// TestSelectFigures pins the -fig contract: every name the usage
// comment documents resolves, and a typo is an error that names the
// valid figures instead of an empty run that exits 0.
func TestSelectFigures(t *testing.T) {
	documented := []string{"3", "4", "7", "table1", "balance-seq", "sec4", "stream", "ablations"}
	for _, name := range documented {
		figs, err := selectFigures(name)
		if err != nil {
			t.Errorf("-fig %s rejected: %v", name, err)
			continue
		}
		if len(figs) != 1 || figs[0].name != name {
			t.Errorf("-fig %s selected %v", name, figs)
		}
	}
	all, err := selectFigures("all")
	if err != nil || len(all) != len(documented) {
		t.Errorf("-fig all selected %d figures (err %v), want %d", len(all), err, len(documented))
	}
	_, err = selectFigures("bogus")
	if err == nil {
		t.Fatal("-fig bogus accepted")
	}
	for _, name := range append(documented, "all") {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not name valid figure %q", err, name)
		}
	}
}

// readGolden returns testdata/experiments.golden behind a newline, so
// that "\n"+block is found exactly where block starts a line.
func readGolden(t *testing.T) string {
	t.Helper()
	data, err := os.ReadFile("../../testdata/experiments.golden")
	if err != nil {
		t.Fatal(err)
	}
	return "\n" + string(data)
}

// TestExperimentsGolden runs every figure of the registry (under -race,
// every one but sec4) with default flags and requires its output, in
// registry order and starting at a line boundary, in
// testdata/experiments.golden, and the stream figure's JSON equal to
// BENCH_stream.json. Everything is virtual time,
// so any difference is a behaviour change: regenerate both files with
// `go run ./cmd/xprsbench > testdata/experiments.golden` and argue it.
func TestExperimentsGolden(t *testing.T) {
	golden := readGolden(t)
	streamOut := filepath.Join(t.TempDir(), "stream.json")
	at := 0
	for _, f := range figures {
		// sec4's 5-relation query joins ≈ 20 M rows. It counts them
		// instead of storing them (a 45 MB peak RSS), but still takes
		// 7–9 s on a 2-CPU host, and over two minutes under -race;
		// there TestSec4Comparison checks §4's shape at k = 4.
		if f.name == "sec4" && raceEnabled {
			continue
		}
		var out bytes.Buffer
		p := params{w: &out, cfg: xprs.DefaultConfig(), seed: defaultSeed, streamOut: streamOut}
		if err := f.run(p); err != nil {
			t.Fatalf("-fig %s: %v", f.name, err)
		}
		i := strings.Index(golden[at:], "\n"+out.String())
		if i < 0 {
			t.Errorf("-fig %s output is not in the golden after byte %d:\n%s", f.name, at, out.String())
			continue
		}
		at += i + out.Len()
	}
	got, err := os.ReadFile(streamOut)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("../../BENCH_stream.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("-fig stream wrote a file that differs from BENCH_stream.json:\n%s", got)
	}
}

// TestExperimentsDocQuotesGolden requires every fenced block of
// EXPERIMENTS.md other than a sh block to be a contiguous run of whole
// lines of the golden, so the document cannot drift from the tool.
func TestExperimentsDocQuotesGolden(t *testing.T) {
	golden := readGolden(t)
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	// Splitting on the fences leaves each block's info string and body
	// at the odd indices.
	parts := strings.Split(string(doc), "```")
	if len(parts) < 3 || len(parts)%2 == 0 {
		t.Fatalf("EXPERIMENTS.md: %d fences, want an even number > 0", len(parts)-1)
	}
	for i := 1; i < len(parts); i += 2 {
		info, block, _ := strings.Cut(parts[i], "\n")
		if info != "sh" && !strings.Contains(golden, "\n"+block) {
			t.Errorf("EXPERIMENTS.md: block is not quoted verbatim from testdata/experiments.golden:\n%s", block)
		}
	}
}
