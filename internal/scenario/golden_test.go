package scenario

import (
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"testing"
)

// goldenText renders an outcome as its text table followed by the exact
// IEEE-754 bits of every float it carries, so a golden comparison fails
// on any drift, not only on drift visible at the table's precision.
func goldenText(o *Outcome) string {
	var sb strings.Builder
	sb.WriteString(o.Render())
	for i, f := range o.Flows {
		fmt.Fprintf(&sb, "flow %d %s avg_window=%016x goodput=%016x share=%016x\n", i, f.Protocol,
			math.Float64bits(f.AvgWindow), math.Float64bits(f.Goodput), math.Float64bits(f.Share))
	}
	keys := make([]string, 0, len(o.Summary))
	for k := range o.Summary {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&sb, "summary %s=%016x\n", k, math.Float64bits(o.Summary[k]))
	}
	return sb.String()
}

// TestParkingLotGolden pins the shipped parking-lot scenario's outcome
// byte for byte: the "multilink" model name, every flow, and exactly the
// three summary keys that model reports.
func TestParkingLotGolden(t *testing.T) {
	raw, err := os.Open("../../scenarios/parking-lot.json")
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	s, err := Load(raw)
	if err != nil {
		t.Fatal(err)
	}
	out, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/parking-lot.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := goldenText(out); got != string(want) {
		t.Errorf("parking-lot outcome drifted from the golden:\ngot:\n%s\nwant:\n%s", got, want)
	}
}
