package scenario

import (
	"fmt"
	"strings"
	"testing"

	"github.com/caps-sim/shs-k8s/internal/stack"
	"github.com/caps-sim/shs-k8s/internal/vnidb"
	"github.com/caps-sim/shs-k8s/internal/vnisvc"
)

// TestVNIExhaustionStarvesOnlyJobsWithoutAVNI reads the bundled
// vni-exhaustion scenario at the seeds where it does and does not pass.
// Six jobs race for a four-VNI pool, and the file deletes job-0 and job-1 by
// name at 5 s. Which four win is decided by submission jitter. So a deleted
// job may never have held a VNI, and its deletion releases nothing. The
// claim held here is that this is the only way a job stays starved: every
// job the file does not delete completes at every seed, so each VNI a
// deletion releases reaches a waiting job. The completed count is therefore
// 4 plus the number of deleted jobs that held a VNI when they were deleted.
func TestVNIExhaustionStarvesOnlyJobsWithoutAVNI(t *testing.T) {
	base, err := ParseFile("../../scenarios/vni-exhaustion.yaml")
	if err != nil {
		t.Fatal(err)
	}
	deleted := []string{"job-0", "job-1"}
	kept := []string{"job-2", "job-3", "job-4", "job-5"}
	for _, seed := range []int64{1, 2, 3, 7, 42} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			sc := *base
			sc.Seed = seed
			var st *stack.Stack
			held := 0 // deleted jobs holding a VNI at the 5 s log event
			res := RunHooked(&sc, Hooks{AfterEvent: func(s *stack.Stack, ev *Event) error {
				st = s
				if ev.Action != "log" {
					return nil
				}
				for _, name := range deleted {
					if holdsVNI(s, "batch", name) {
						held++
					}
				}
				return nil
			}})
			if st == nil {
				t.Fatalf("run never started: %v", res.Err)
			}
			completed := held
			for _, name := range kept {
				job, ok := st.Cluster.Job("batch", name)
				if !ok || !job.Status.Completed {
					t.Errorf("%s never completed: a released VNI did not reach it", name)
					continue
				}
				completed++
			}
			if completed != 4+held {
				t.Fatalf("%d jobs completed, want 4 + %d deleted jobs that held a VNI", completed, held)
			}
			// The scenario's own verdict counts the same jobs.
			if completed == 6 {
				if !res.Passed() {
					t.Fatalf("6/6 jobs completed but the scenario failed: %v", res.Err)
				}
			} else if res.Err == nil || !strings.Contains(res.Err.Error(), fmt.Sprintf(": %d/6 jobs complete", completed)) {
				t.Fatalf("%d/6 jobs completed, scenario error: %v", completed, res.Err)
			}
			t.Logf("seed %d: %d of the deleted jobs held a VNI, %d/6 jobs complete", seed, held, completed)
		})
	}
}

// holdsVNI reports whether the database has a VNI allocated to the job.
func holdsVNI(st *stack.Stack, namespace, job string) bool {
	prefix := string(vnisvc.AppendJobKeyPrefix(nil, namespace, job))
	found := false
	_ = st.DB.View(func(tx *vnidb.Tx) error {
		for _, r := range tx.List() {
			if r.State == vnidb.Allocated && strings.HasPrefix(r.Owner, prefix) {
				found = true
			}
		}
		return nil
	})
	return found
}
