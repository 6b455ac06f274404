package experiments

import (
	"encoding/json"
	"os"
	"testing"
)

// TestReplicationMatchesCheckedIn pins the deterministic columns of
// BENCH_replica.json: write-path I/Os, messages and mirror fan-out, the
// crash window's statement outcomes, and the slots failover promoted and
// repair recopied. The timing columns are not compared.
func TestReplicationMatchesCheckedIn(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full replication experiment")
	}
	raw, err := os.ReadFile("../../BENCH_replica.json")
	if err != nil {
		t.Fatal(err)
	}
	var want []ReplicationResult
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	got, err := Replication(8, 64)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d results, want %d", len(got), len(want))
	}
	type cols struct {
		L, K, Statements, Tuples         int
		TWIOs, Messages                  int64
		MirrorDeliveries, MirroredTuples int64
		CrashStmtOK, CrashStmtErr        int
		CompleteReads                    bool
		PromotedSlots, RepairedSlots     int64
	}
	pick := func(r ReplicationResult) cols {
		return cols{r.L, r.K, r.Statements, r.Tuples, r.TWIOs, r.Messages,
			r.MirrorDeliveries, r.MirroredTuples, r.CrashStmtOK, r.CrashStmtErr,
			r.CompleteReads, r.PromotedSlots, r.RepairedSlots}
	}
	for i := range want {
		if g, w := pick(got[i]), pick(want[i]); g != w {
			t.Errorf("K=%d:\n got %+v\nwant %+v", want[i].K, g, w)
		}
	}
}
