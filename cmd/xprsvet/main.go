// Command xprsvet runs the repo's determinism analyzer suite
// (internal/lint): vclockpurity, obsnoclock, maporder, atomicmix,
// poollifetime, policypurity and tracegate.
//
//	xprsvet [package pattern ...]   (default ./...)
//
// loads the named packages with `go list -export`, typechecks them
// from source, runs every analyzer over every package and prints
// findings as file:line:col: message [analyzer] — the format the CI
// problem matcher reads. Exit status 1 means findings (or a load
// error). `make lint` runs it after `go vet ./...`.
package main

import (
	"flag"
	"fmt"
	"os"

	"xprs/internal/lint"
)

func main() {
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: xprsvet [package pattern ...]   (default ./...)\n\nAnalyzers:\n")
		for _, a := range lint.Suite {
			fmt.Fprintf(os.Stderr, "  %-14s %s\n", a.Name, a.Doc)
		}
	}
	flag.Parse()
	os.Exit(run(flag.Args()))
}

func run(patterns []string) int {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "xprsvet:", err)
		return 1
	}
	pkgs, err := lint.Load(wd, patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "xprsvet:", err)
		return 1
	}
	diags, err := lint.RunAnalyzers(pkgs, lint.Suite)
	if err != nil {
		fmt.Fprintln(os.Stderr, "xprsvet:", err)
		return 1
	}
	for _, d := range diags {
		fmt.Println(d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "xprsvet: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}
