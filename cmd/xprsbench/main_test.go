package main

import (
	"strings"
	"testing"
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
