package figures

import (
	"strings"
	"testing"
)

// TestFaultRecoveryShape regenerates the fault-recovery table at 2
// shards and checks every schedule stayed bit-identical and ended in
// the expected outcome.
func TestFaultRecoveryShape(t *testing.T) {
	tab := FaultRecovery(2)
	if tab.Name != "faults" {
		t.Fatalf("table name = %q, want faults", tab.Name)
	}
	if len(tab.Rows) != 5 {
		t.Fatalf("want 5 schedules, got %d:\n%v", len(tab.Rows), tab)
	}
	for _, row := range tab.Rows {
		if len(row) != len(tab.Header) {
			t.Fatalf("row %v has %d cells, header has %d", row, len(row), len(tab.Header))
		}
		if strings.Contains(row[5], "FAIL") {
			t.Fatalf("schedule %q failed: %s", row[0], row[5])
		}
		if row[4] != "yes" {
			t.Fatalf("schedule %q not bit-identical", row[0])
		}
	}
	if got := tab.Rows[0][5]; got != "clean" {
		t.Fatalf("fault-free outcome = %q, want clean", got)
	}
	if got := tab.Rows[len(tab.Rows)-1][5]; got != "degraded to sequential" {
		t.Fatalf("exhausted-retries outcome = %q, want degraded to sequential", got)
	}
	// The crash-every-vertex schedule must account for each fault as a
	// retry, one per vertex.
	if tab.Rows[1][2] != tab.Rows[1][3] || tab.Rows[1][2] == "0" {
		t.Fatalf("crash-all row should count matching faults and retries, got %v", tab.Rows[1])
	}
}
