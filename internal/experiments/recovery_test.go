package experiments

import (
	"strconv"
	"testing"
)

// TestRecoveryTableShape runs the recovery experiment, every re-plan a
// full MIP solve: restart plus {resume, replan} x three checkpoint
// intervals, recovery is never free, and a denser checkpoint cadence
// never loses more work.
func TestRecoveryTableShape(t *testing.T) {
	tab, err := Recovery()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 7 {
		t.Fatalf("want 7 rows (restart + 2 policies x 3 intervals), got %d", len(tab.Rows))
	}
	col := func(row []string, i int) float64 {
		v, err := strconv.ParseFloat(row[i], 64)
		if err != nil {
			t.Fatalf("row %v col %d: %v", row, i, err)
		}
		return v
	}
	lostAt := map[string]float64{} // "policy/every" -> lost work
	for _, row := range tab.Rows {
		if over := col(row, 3); over <= 0 {
			t.Errorf("%s/%s: recovery overhead %.2f should be positive", row[0], row[1], over)
		}
		lostAt[row[0]+"/"+row[1]] = col(row, 4)
	}
	for _, policy := range []string{"resume", "replan"} {
		if lostAt[policy+"/1"] > lostAt[policy+"/4"] {
			t.Errorf("%s: checkpointing every step loses more work (%.2fs) than every 4 (%.2fs)",
				policy, lostAt[policy+"/1"], lostAt[policy+"/4"])
		}
	}
	// Restart discards every finished step; with checkpoints the failure
	// costs at most the interval since the last snapshot.
	if lostAt["restart/-"] <= lostAt["replan/1"] {
		t.Errorf("restart should lose more work (%.2fs) than replan with per-step checkpoints (%.2fs)",
			lostAt["restart/-"], lostAt["replan/1"])
	}
}
