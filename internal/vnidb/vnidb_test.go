package vnidb

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"github.com/caps-sim/shs-k8s/internal/fabric"
	"github.com/caps-sim/shs-k8s/internal/sim"
)

func small() Options {
	return Options{MinVNI: 10, MaxVNI: 19, Quarantine: sim.Duration(30 * time.Second)}
}

func at(sec int) sim.Time { return sim.Time(time.Duration(sec) * time.Second) }

func TestAcquireReleaseBasic(t *testing.T) {
	db := Open(small())
	var v fabric.VNI
	err := db.Update(func(tx *Tx) error {
		var err error
		v, err = tx.Acquire("job/default/j1", at(0))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if v < 10 || v > 19 {
		t.Fatalf("vni %d outside pool", v)
	}
	if err := db.View(func(tx *Tx) error {
		r, ok := tx.Get(v)
		if !ok || r.State != Allocated || r.Owner != "job/default/j1" {
			return fmt.Errorf("row = %+v ok=%v", r, ok)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := db.Update(func(tx *Tx) error { return tx.Release(v, at(1)) }); err != nil {
		t.Fatal(err)
	}
	st := db.Stats()
	if st.Allocated != 0 || st.Quarantined != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestAcquireUniquenessUntilExhausted(t *testing.T) {
	db := Open(small())
	seen := map[fabric.VNI]bool{}
	for i := 0; i < 10; i++ {
		err := db.Update(func(tx *Tx) error {
			v, err := tx.Acquire(fmt.Sprintf("o%d", i), at(0))
			if err != nil {
				return err
			}
			if seen[v] {
				return fmt.Errorf("vni %d allocated twice", v)
			}
			seen[v] = true
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	err := db.Update(func(tx *Tx) error {
		_, err := tx.Acquire("overflow", at(0))
		return err
	})
	if !errors.Is(err, ErrExhausted) {
		t.Errorf("err = %v, want ErrExhausted", err)
	}
}

func TestQuarantineBlocksReuseFor30s(t *testing.T) {
	opts := Options{MinVNI: 10, MaxVNI: 10, Quarantine: sim.Duration(30 * time.Second)}
	db := Open(opts)
	if err := db.Update(func(tx *Tx) error {
		v, err := tx.Acquire("a", at(0))
		if err != nil {
			return err
		}
		return tx.Release(v, at(5))
	}); err != nil {
		t.Fatal(err)
	}
	// 29 s after release: still quarantined.
	err := db.Update(func(tx *Tx) error {
		_, err := tx.Acquire("b", at(34))
		return err
	})
	if !errors.Is(err, ErrExhausted) {
		t.Errorf("acquire at +29s: %v, want ErrExhausted", err)
	}
	// 30 s after release: reusable.
	if err := db.Update(func(tx *Tx) error {
		v, err := tx.Acquire("b", at(35))
		if err != nil {
			return err
		}
		if v != 10 {
			return fmt.Errorf("vni = %d", v)
		}
		return nil
	}); err != nil {
		t.Errorf("acquire at +30s: %v", err)
	}
}

func TestZeroQuarantinePermitsImmediateReuse(t *testing.T) {
	opts := Options{MinVNI: 10, MaxVNI: 10, Quarantine: 0}
	db := Open(opts)
	if err := db.Update(func(tx *Tx) error {
		v, err := tx.Acquire("a", at(0))
		if err != nil {
			return err
		}
		if err := tx.Release(v, at(0)); err != nil {
			return err
		}
		_, err = tx.Acquire("b", at(0))
		return err
	}); err != nil {
		t.Errorf("zero-quarantine reuse: %v", err)
	}
}

func TestReleaseErrors(t *testing.T) {
	db := Open(small())
	if err := db.Update(func(tx *Tx) error { return tx.Release(10, at(0)) }); !errors.Is(err, ErrNotAllocated) {
		t.Errorf("release unallocated: %v", err)
	}
	if err := db.Update(func(tx *Tx) error {
		v, err := tx.Acquire("a", at(0))
		if err != nil {
			return err
		}
		if err := tx.Release(v, at(0)); err != nil {
			return err
		}
		return tx.Release(v, at(0))
	}); !errors.Is(err, ErrNotAllocated) {
		t.Errorf("double release: %v", err)
	}
}

func TestUsersLifecycle(t *testing.T) {
	db := Open(small())
	var v fabric.VNI
	err := db.Update(func(tx *Tx) error {
		var err error
		v, err = tx.Acquire("claim/ns/test", at(0))
		if err != nil {
			return err
		}
		if err := tx.AddUser(v, "job/ns/j1", at(0)); err != nil {
			return err
		}
		if err := tx.AddUser(v, "job/ns/j2", at(0)); err != nil {
			return err
		}
		n, err := tx.UserCount(v)
		if err != nil || n != 2 {
			return fmt.Errorf("count=%d err=%v", n, err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Update(func(tx *Tx) error {
		return tx.AddUser(v, "job/ns/j1", at(1))
	}); !errors.Is(err, ErrUserExists) {
		t.Errorf("duplicate user: %v", err)
	}
	if err := db.Update(func(tx *Tx) error {
		return tx.RemoveUser(v, "job/ns/j3", at(1))
	}); !errors.Is(err, ErrNoSuchUser) {
		t.Errorf("remove missing user: %v", err)
	}
	if err := db.Update(func(tx *Tx) error {
		if err := tx.RemoveUser(v, "job/ns/j1", at(2)); err != nil {
			return err
		}
		return tx.RemoveUser(v, "job/ns/j2", at(2))
	}); err != nil {
		t.Fatal(err)
	}
	db.View(func(tx *Tx) error {
		r, _ := tx.Get(v)
		if len(r.Users) != 0 {
			t.Errorf("users = %v", r.Users)
		}
		return nil
	})
}

func TestReleaseClearsUsers(t *testing.T) {
	db := Open(small())
	db.Update(func(tx *Tx) error {
		v, _ := tx.Acquire("c", at(0))
		tx.AddUser(v, "u1", at(0))
		return tx.Release(v, at(1))
	})
	db.View(func(tx *Tx) error {
		rows := tx.List()
		if len(rows) != 1 || len(rows[0].Users) != 0 {
			t.Errorf("rows = %+v", rows)
		}
		return nil
	})
}

func TestRollbackRestoresEverything(t *testing.T) {
	db := Open(small())
	var v fabric.VNI
	db.Update(func(tx *Tx) error {
		v, _ = tx.Acquire("keep", at(0))
		return nil
	})
	auditBefore := len(db.Audit())
	sentinel := errors.New("boom")
	err := db.Update(func(tx *Tx) error {
		if _, err := tx.Acquire("discard", at(1)); err != nil {
			return err
		}
		if err := tx.AddUser(v, "u", at(1)); err != nil {
			return err
		}
		if err := tx.Release(v, at(1)); err != nil {
			return err
		}
		return sentinel
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v", err)
	}
	st := db.Stats()
	if st.Allocated != 1 || st.Quarantined != 0 {
		t.Errorf("stats after rollback = %+v", st)
	}
	db.View(func(tx *Tx) error {
		r, ok := tx.Get(v)
		if !ok || r.State != Allocated || len(r.Users) != 0 || r.Owner != "keep" {
			t.Errorf("row after rollback = %+v", r)
		}
		return nil
	})
	if got := len(db.Audit()); got != auditBefore {
		t.Errorf("audit grew across rollback: %d -> %d", auditBefore, got)
	}

	// Every kind of undo entry, each reverting what its mutation overwrote:
	// an insert over nothing and one over an expired quarantined row (the
	// displaced row and the cursor come back), a release (state, release
	// time, users and the row's place in its owner chain), a user added and
	// a user removed, and the audit row every mutation appends.
	opts := small()
	opts.Quarantine = 0
	db = Open(opts)
	var shared, gone fabric.VNI
	if err := db.Update(func(tx *Tx) (err error) {
		if _, err = tx.Acquire("twin", at(0)); err != nil {
			return err
		}
		if shared, err = tx.Acquire("twin", at(0)); err != nil {
			return err
		}
		if gone, err = tx.Acquire("gone", at(0)); err != nil {
			return err
		}
		if err = tx.AddUser(shared, "u1", at(0)); err != nil {
			return err
		}
		return tx.Release(gone, at(1))
	}); err != nil {
		t.Fatal(err)
	}
	snapshot := func() (rows []Row, audit []AuditEntry, probe fabric.VNI, owners []fabric.VNI) {
		db.View(func(tx *Tx) error { rows = tx.List(); return nil })
		return rows, db.Audit(), db.nextProbe, ownerVNIs(db, []string{"twin", "gone", "fresh"})
	}
	kinds := []struct {
		name string
		fn   func(tx *Tx) error
	}{
		{"insert", func(tx *Tx) error { _, err := tx.Acquire("fresh", at(2)); return err }},
		{"insert over quarantined", func(tx *Tx) error {
			for {
				if v, err := tx.Acquire("fresh", at(2)); err != nil || v == gone {
					return err
				}
			}
		}},
		{"release of a chain head", func(tx *Tx) error { return tx.Release(shared, at(2)) }},
		{"add user", func(tx *Tx) error { return tx.AddUser(shared, "u2", at(2)) }},
		{"remove user", func(tx *Tx) error { return tx.RemoveUser(shared, "u1", at(2)) }},
	}
	for _, k := range kinds {
		rows, audit, probe, owners := snapshot()
		if err := db.Update(func(tx *Tx) error {
			if err := k.fn(tx); err != nil {
				return err
			}
			return sentinel
		}); !errors.Is(err, sentinel) {
			t.Fatalf("%s: err = %v", k.name, err)
		}
		gotRows, gotAudit, gotProbe, gotOwners := snapshot()
		if !reflect.DeepEqual(rows, gotRows) || !reflect.DeepEqual(audit, gotAudit) ||
			probe != gotProbe || !reflect.DeepEqual(owners, gotOwners) {
			t.Errorf("%s: rollback left rows %+v (was %+v), %d audit rows (was %d), cursor %d (was %d), owners %v (was %v)",
				k.name, gotRows, rows, len(gotAudit), len(audit), gotProbe, probe, gotOwners, owners)
		}
		checkOwnerIndex(t, db, []string{"twin", "gone", "fresh"}, k.name)
	}
}

// A handle kept past its transaction fails, whether it is used between
// transactions or inside a later one.
func TestStaleTxHandle(t *testing.T) {
	db := Open(small())
	var stale, staleView *Tx
	var v fabric.VNI
	db.Update(func(tx *Tx) (err error) {
		stale = tx
		v, err = tx.Acquire("a", at(0))
		return err
	})
	db.View(func(tx *Tx) error { staleView = tx; return nil })
	use := func(when string) {
		t.Helper()
		for _, h := range []*Tx{stale, staleView} {
			if _, err := h.Acquire("b", at(1)); !errors.Is(err, ErrTxDone) {
				t.Errorf("%s: Acquire on a stale handle: %v, want ErrTxDone", when, err)
			}
			if err := h.Release(v, at(1)); !errors.Is(err, ErrTxDone) {
				t.Errorf("%s: Release on a stale handle: %v, want ErrTxDone", when, err)
			}
			if _, ok := h.Get(v); ok {
				t.Errorf("%s: Get on a stale handle found vni %d", when, v)
			}
			if _, ok := h.FindByOwner("a"); ok {
				t.Errorf("%s: FindByOwner on a stale handle found a row", when)
			}
		}
	}
	use("between transactions")
	for i := 0; i < 2*txSlab; i++ { // past a slab, so handles could have been reused
		db.Update(func(tx *Tx) error {
			use(fmt.Sprintf("inside transaction %d", i))
			_, ok := tx.Get(v)
			if !ok {
				t.Fatalf("transaction %d: the live handle does not find vni %d", i, v)
			}
			return nil
		})
	}
	if st := db.Stats(); st.Allocated != 1 {
		t.Errorf("stale handles changed the table: %+v", st)
	}
}

func TestFindByOwner(t *testing.T) {
	db := Open(small())
	var v fabric.VNI
	db.Update(func(tx *Tx) error {
		v, _ = tx.Acquire("claim/ns/c1", at(0))
		tx.Acquire("claim/ns/c2", at(0))
		return nil
	})
	db.View(func(tx *Tx) error {
		r, ok := tx.FindByOwner("claim/ns/c1")
		if !ok || r.VNI != v {
			t.Errorf("FindByOwner = %+v ok=%v", r, ok)
		}
		if _, ok := tx.FindByOwner("claim/ns/ghost"); ok {
			t.Error("found ghost owner")
		}
		return nil
	})
}

func TestViewRejectsWrites(t *testing.T) {
	db := Open(small())
	err := db.View(func(tx *Tx) error {
		_, err := tx.Acquire("x", at(0))
		return err
	})
	if err == nil {
		t.Error("write in View succeeded")
	}
}

func TestClosedDB(t *testing.T) {
	db := Open(small())
	db.Close()
	if err := db.Update(func(tx *Tx) error { return nil }); !errors.Is(err, ErrClosed) {
		t.Errorf("Update on closed db: %v", err)
	}
	if err := db.View(func(tx *Tx) error { return nil }); !errors.Is(err, ErrClosed) {
		t.Errorf("View on closed db: %v", err)
	}
}

func TestAuditLogRecordsOperations(t *testing.T) {
	db := Open(small())
	db.Update(func(tx *Tx) error {
		v, _ := tx.Acquire("o", at(0))
		tx.AddUser(v, "u", at(1))
		tx.RemoveUser(v, "u", at(2))
		tx.Release(v, at(3))
		return nil
	})
	log := db.Audit()
	wantOps := []AuditOp{OpAcquire, OpAddUser, OpRemoveUser, OpRelease}
	if len(log) != len(wantOps) {
		t.Fatalf("audit has %d entries, want %d", len(log), len(wantOps))
	}
	for i, e := range log {
		if e.Op != wantOps[i] {
			t.Errorf("audit[%d].Op = %q, want %q", i, e.Op, wantOps[i])
		}
		if e.Seq != uint64(i+1) {
			t.Errorf("audit[%d].Seq = %d", i, e.Seq)
		}
	}
}

func TestConcurrentAcquireNeverDoubleAllocates(t *testing.T) {
	db := Open(Options{MinVNI: 100, MaxVNI: 1099, Quarantine: 0})
	const workers = 16
	const per = 50
	var mu sync.Mutex
	seen := map[fabric.VNI]string{}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				owner := fmt.Sprintf("w%d-%d", w, i)
				err := db.Update(func(tx *Tx) error {
					v, err := tx.Acquire(owner, at(0))
					if err != nil {
						return err
					}
					mu.Lock()
					if prev, dup := seen[v]; dup {
						mu.Unlock()
						return fmt.Errorf("vni %d allocated to both %s and %s", v, prev, owner)
					}
					seen[v] = owner
					mu.Unlock()
					return nil
				})
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if len(seen) != workers*per {
		t.Errorf("allocated %d distinct VNIs, want %d", len(seen), workers*per)
	}
}

// TestUnsafeAllocatorExhibitsTOCTOU demonstrates the race the paper's
// transactional design prevents: check-then-insert without a transaction
// double-allocates under concurrency.
func TestUnsafeAllocatorExhibitsTOCTOU(t *testing.T) {
	db := Open(Options{MinVNI: 100, MaxVNI: 100000, Quarantine: 0})
	gate := make(chan struct{})
	var entered sync.WaitGroup
	entered.Add(2)
	ua := NewUnsafeAllocator(db, func() {
		entered.Done()
		<-gate // both goroutines sit in the TOCTOU window together
	})
	results := make(chan fabric.VNI, 2)
	for i := 0; i < 2; i++ {
		i := i
		go func() {
			v, err := ua.Acquire(fmt.Sprintf("racer%d", i), at(0))
			if err != nil {
				t.Error(err)
			}
			results <- v
		}()
	}
	entered.Wait()
	close(gate)
	a, b := <-results, <-results
	if a != b {
		t.Fatalf("expected the strawman to double-allocate, got %d and %d", a, b)
	}
}

func TestWALRecoveryRoundTrip(t *testing.T) {
	var wal bytes.Buffer
	opts := small()
	opts.WAL = &wal
	db := Open(opts)
	var v1, v2 fabric.VNI
	db.Update(func(tx *Tx) error {
		v1, _ = tx.Acquire("job/a", at(0))
		v2, _ = tx.Acquire("claim/b", at(0))
		tx.AddUser(v2, "job/x", at(1))
		return nil
	})
	db.Update(func(tx *Tx) error { return tx.Release(v1, at(2)) })

	re, err := Recover(bytes.NewReader(wal.Bytes()), small())
	if err != nil {
		t.Fatal(err)
	}
	if err := re.View(func(tx *Tx) error {
		r1, ok := tx.Get(v1)
		if !ok || r1.State != Quarantined || r1.ReleasedAt != at(2) {
			return fmt.Errorf("v1 = %+v", r1)
		}
		r2, ok := tx.Get(v2)
		if !ok || r2.State != Allocated || r2.Owner != "claim/b" {
			return fmt.Errorf("v2 = %+v", r2)
		}
		if len(r2.Users) != 1 || r2.Users[0] != "job/x" {
			return fmt.Errorf("v2 users = %v", r2.Users)
		}
		return nil
	}); err != nil {
		t.Error(err)
	}
}

func TestWALRecoveryIgnoresTornTail(t *testing.T) {
	var wal bytes.Buffer
	opts := small()
	opts.WAL = &wal
	db := Open(opts)
	db.Update(func(tx *Tx) error {
		_, err := tx.Acquire("a", at(0))
		return err
	})
	torn := append(bytes.Clone(wal.Bytes()), []byte(`[{"op":"acquire","vni":11,"own`)...)
	re, err := Recover(bytes.NewReader(torn), small())
	if err != nil {
		t.Fatalf("torn tail should be tolerated: %v", err)
	}
	if st := re.Stats(); st.Allocated != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestWALRecoveryRejectsInteriorCorruption(t *testing.T) {
	good := `[{"op":"acquire","vni":10,"owner":"a","at":0}]`
	corrupt := "garbage\n" + good + "\n"
	if _, err := Recover(bytes.NewReader([]byte(corrupt)), small()); err == nil {
		t.Error("interior corruption accepted")
	}
}

func TestWALRecoveryRejectsDoubleAcquire(t *testing.T) {
	l := `[{"op":"acquire","vni":10,"owner":"a","at":0}]
[{"op":"acquire","vni":10,"owner":"b","at":0}]
`
	if _, err := Recover(bytes.NewReader([]byte(l)), small()); err == nil {
		t.Error("conflicting WAL accepted")
	}
}

func TestRecoveredDBContinuesLogging(t *testing.T) {
	var wal1 bytes.Buffer
	opts := small()
	opts.WAL = &wal1
	db := Open(opts)
	db.Update(func(tx *Tx) error {
		_, err := tx.Acquire("a", at(0))
		return err
	})
	var wal2 bytes.Buffer
	opts2 := small()
	opts2.WAL = &wal2
	re, err := Recover(bytes.NewReader(wal1.Bytes()), opts2)
	if err != nil {
		t.Fatal(err)
	}
	re.Update(func(tx *Tx) error {
		_, err := tx.Acquire("b", at(1))
		return err
	})
	if wal2.Len() == 0 {
		t.Error("recovered DB did not log new transactions")
	}
	if bytes.Contains(wal2.Bytes(), []byte(`"owner":"a"`)) {
		t.Error("recovery re-logged history into the new WAL")
	}
}

func TestStateString(t *testing.T) {
	for s, want := range map[State]string{Free: "free", Allocated: "allocated", Quarantined: "quarantined"} {
		if s.String() != want {
			t.Errorf("%d.String() = %q", s, s.String())
		}
	}
	if State(9).String() == "" {
		t.Error("unknown state empty")
	}
}

// Property: after any sequence of acquire/release operations, (1) no VNI is
// allocated to two owners, (2) every allocated VNI is within the pool, and
// (3) quarantine is respected at the operation times used.
func TestQuickAllocatorInvariants(t *testing.T) {
	type op struct {
		Release bool
		Idx     uint8
		AtSec   uint8
	}
	f := func(ops []op) bool {
		db := Open(Options{MinVNI: 1, MaxVNI: 32, Quarantine: sim.Duration(5 * time.Second)})
		var live []fabric.VNI
		lastRelease := map[fabric.VNI]sim.Time{}
		now := sim.Time(0)
		for i, o := range ops {
			now = now.Add(sim.Duration(o.AtSec) * time.Second / 4)
			if o.Release && len(live) > 0 {
				v := live[int(o.Idx)%len(live)]
				live = removeVNI(live, v)
				if err := db.Update(func(tx *Tx) error { return tx.Release(v, now) }); err != nil {
					return false
				}
				lastRelease[v] = now
				continue
			}
			var got fabric.VNI
			err := db.Update(func(tx *Tx) error {
				v, err := tx.Acquire(fmt.Sprintf("o%d", i), now)
				got = v
				return err
			})
			if errors.Is(err, ErrExhausted) {
				continue
			}
			if err != nil {
				return false
			}
			if got < 1 || got > 32 {
				return false
			}
			for _, l := range live {
				if l == got {
					return false // double allocation
				}
			}
			if rel, ok := lastRelease[got]; ok && now.Sub(rel) < sim.Duration(5*time.Second) {
				return false // quarantine violated
			}
			live = append(live, got)
		}
		return db.Stats().Allocated == len(live)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(21))}); err != nil {
		t.Error(err)
	}
}

func removeVNI(s []fabric.VNI, v fabric.VNI) []fabric.VNI {
	out := s[:0]
	for _, x := range s {
		if x != v {
			out = append(out, x)
		}
	}
	return out
}

// Property: WAL recovery reproduces the exact allocation table for random
// operation sequences.
func TestQuickWALRecoveryEquivalence(t *testing.T) {
	type op struct {
		Kind  uint8
		Idx   uint8
		AtSec uint8
	}
	f := func(ops []op) bool {
		var wal bytes.Buffer
		opts := Options{MinVNI: 1, MaxVNI: 16, Quarantine: sim.Duration(2 * time.Second), WAL: &wal}
		db := Open(opts)
		var live []fabric.VNI
		now := sim.Time(0)
		for i, o := range ops {
			now = now.Add(sim.Duration(o.AtSec) * time.Second / 8)
			switch o.Kind % 4 {
			case 0:
				db.Update(func(tx *Tx) error {
					v, err := tx.Acquire(fmt.Sprintf("o%d", i), now)
					if err == nil {
						live = append(live, v)
					}
					return err
				})
			case 1:
				if len(live) > 0 {
					v := live[int(o.Idx)%len(live)]
					if db.Update(func(tx *Tx) error { return tx.Release(v, now) }) == nil {
						live = removeVNI(live, v)
					}
				}
			case 2:
				if len(live) > 0 {
					v := live[int(o.Idx)%len(live)]
					db.Update(func(tx *Tx) error { return tx.AddUser(v, fmt.Sprintf("u%d", i), now) })
				}
			case 3:
				if len(live) > 0 {
					v := live[int(o.Idx)%len(live)]
					db.Update(func(tx *Tx) error {
						r, ok := tx.Get(v)
						if !ok || len(r.Users) == 0 {
							return errors.New("skip")
						}
						return tx.RemoveUser(v, r.Users[0], now)
					})
				}
			}
		}
		re, err := Recover(bytes.NewReader(wal.Bytes()), Options{MinVNI: 1, MaxVNI: 16, Quarantine: sim.Duration(2 * time.Second)})
		if err != nil {
			return false
		}
		var a, b []Row
		db.View(func(tx *Tx) error { a = tx.List(); return nil })
		re.View(func(tx *Tx) error { b = tx.List(); return nil })
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i].VNI != b[i].VNI || a[i].State != b[i].State || a[i].Owner != b[i].Owner ||
				len(a[i].Users) != len(b[i].Users) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80, Rand: rand.New(rand.NewSource(22))}); err != nil {
		t.Error(err)
	}
}

// A recovered database must continue the round-robin where the original
// stood, or the first Acquire after a restart restarts at MinVNI and hands
// out the most recently released VNI.
func TestRecoveredDBHandsOutSameNextVNI(t *testing.T) {
	var wal bytes.Buffer
	opts := Options{MinVNI: 10, MaxVNI: 20, Quarantine: sim.Duration(30 * time.Second), WAL: &wal}
	db := Open(opts)
	db.Update(func(tx *Tx) error {
		for _, o := range []string{"a", "b", "c"} {
			if _, err := tx.Acquire(o, at(0)); err != nil {
				return err
			}
		}
		return tx.Release(10, at(1))
	})
	opts.WAL = nil
	re, err := Recover(bytes.NewReader(wal.Bytes()), opts)
	if err != nil {
		t.Fatal(err)
	}
	next := func(db *DB) (v fabric.VNI) {
		if err := db.Update(func(tx *Tx) (err error) {
			v, err = tx.Acquire("d", at(60)) // 10's quarantine has expired
			return err
		}); err != nil {
			t.Fatal(err)
		}
		return v
	}
	if orig, rec := next(db), next(re); orig != 13 || rec != orig {
		t.Errorf("next VNI: original %d, recovered %d, want 13 from both", orig, rec)
	}
}

// scanByOwner answers FindByOwner's question the way it was answered before
// the owner index existed, by scanning the table. It is the oracle the
// index is checked against.
func scanByOwner(db *DB, owner string) bool {
	for _, r := range db.rows {
		if r.state == Allocated && r.owner == owner {
			return true
		}
	}
	return false
}

// checkOwnerIndex fails the test unless FindByOwner agrees with the scan for
// every owner and the index holds exactly the table's Allocated rows.
func checkOwnerIndex(t *testing.T, db *DB, owners []string, step string) {
	t.Helper()
	db.View(func(tx *Tx) error {
		for _, o := range owners {
			r, ok := tx.FindByOwner(o)
			if want := scanByOwner(db, o); ok != want {
				t.Fatalf("%s: FindByOwner(%q) found=%v, scan found=%v", step, o, ok, want)
			}
			if !ok {
				continue
			}
			if r.State != Allocated || r.Owner != o {
				t.Fatalf("%s: FindByOwner(%q) = %+v", step, o, r)
			}
			if g, ok := tx.Get(r.VNI); !ok || !reflect.DeepEqual(g, r) {
				t.Fatalf("%s: FindByOwner(%q) = %+v but Get(%d) = %+v, %v", step, o, r, r.VNI, g, ok)
			}
		}
		return nil
	})
	indexed := 0
	for owner, r := range db.byOwner {
		for ; r != nil; r = r.ownerNext {
			indexed++
			if db.rows[r.vni] != r || r.state != Allocated || r.owner != owner {
				t.Fatalf("%s: chain of %q holds %+v, table has %+v", step, owner, r, db.rows[r.vni])
			}
		}
	}
	if n := db.Stats().Allocated; indexed != n {
		t.Fatalf("%s: %d rows indexed, %d allocated", step, indexed, n)
	}
}

// ownerVNIs is what FindByOwner returns for each owner (0 when not found):
// the observable state of the index, tie-break included.
func ownerVNIs(db *DB, owners []string) []fabric.VNI {
	out := make([]fabric.VNI, len(owners))
	db.View(func(tx *Tx) error {
		for i, o := range owners {
			if r, ok := tx.FindByOwner(o); ok {
				out[i] = r.VNI
			}
		}
		return nil
	})
	return out
}

// Property: under random operation sequences with repeated owners, rolled-
// back transactions, the unsafe allocator displacing live rows and WAL
// recovery, the owner index stays equivalent to the table. Odd seeds use the
// unsafe allocator, whose insertions bypass the WAL; even seeds recover.
func TestOwnerIndexMatchesScan(t *testing.T) {
	owners := []string{"o0", "o1", "o2", "o3", "o4", "o5"}
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		displace := seed%2 == 1
		var wal bytes.Buffer
		opts := Options{MinVNI: 10, MaxVNI: 29, Quarantine: sim.Duration(2 * time.Second), WAL: &wal}
		db := Open(opts)
		now := sim.Time(0)
		owner := func() string { return owners[rng.Intn(len(owners))] }
		// mutate applies one random operation inside tx; its error, if
		// any (exhausted pool, duplicate user), is part of the sequence.
		mutate := func(tx *Tx) error {
			var live []fabric.VNI
			for _, r := range tx.List() {
				if r.State == Allocated {
					live = append(live, r.VNI)
				}
			}
			k := rng.Intn(7)
			if k < 3 || len(live) == 0 {
				_, err := tx.Acquire(owner(), now)
				return err
			}
			v := live[rng.Intn(len(live))]
			user := fmt.Sprintf("u%d", rng.Intn(3))
			switch k {
			case 3, 4:
				return tx.Release(v, now)
			case 5:
				return tx.AddUser(v, user, now)
			default:
				return tx.RemoveUser(v, user, now)
			}
		}
		for i := 0; i < 300; i++ {
			now = now.Add(sim.Duration(rng.Intn(1000)) * time.Millisecond)
			step := fmt.Sprintf("seed %d step %d", seed, i)
			switch k := rng.Intn(10); {
			case k < 6:
				db.Update(mutate)
			case k < 8: // a transaction that fails half-way leaves no trace
				var before []Row
				db.View(func(tx *Tx) error { before = tx.List(); return nil })
				found := ownerVNIs(db, owners)
				db.Update(func(tx *Tx) error {
					for n := 1 + rng.Intn(3); n > 0; n-- {
						mutate(tx)
					}
					return errors.New("roll back")
				})
				var after []Row
				db.View(func(tx *Tx) error { after = tx.List(); return nil })
				if !reflect.DeepEqual(before, after) || !reflect.DeepEqual(found, ownerVNIs(db, owners)) {
					t.Fatalf("%s: rollback changed the table or the index", step)
				}
			case displace: // both allocators settle on one VNI; the outer displaces the inner's live row
				inner := NewUnsafeAllocator(db, nil)
				outer := NewUnsafeAllocator(db, func() { inner.Acquire(owner(), now) })
				outer.Acquire(owner(), now)
			default:
				ropts := opts
				ropts.WAL = nil
				if k == 9 {
					ropts.WAL = &wal // carry on from the recovered database
				}
				re, err := Recover(bytes.NewReader(bytes.Clone(wal.Bytes())), ropts)
				if err != nil {
					t.Fatalf("%s: %v", step, err)
				}
				checkOwnerIndex(t, re, owners, step+" (recovered)")
				if !reflect.DeepEqual(ownerVNIs(db, owners), ownerVNIs(re, owners)) || re.nextProbe != db.nextProbe {
					t.Fatalf("%s: recovered database answers differently from the original", step)
				}
				if k == 9 {
					db = re
				}
			}
			checkOwnerIndex(t, db, owners, step)
		}
	}
}

// A lookup allocates nothing: neither per row nor for the transaction, whose
// record the database reuses and whose handle comes from a slab.
func TestFindByOwnerAllocs(t *testing.T) {
	db, owners := filledDB(t, 2000)
	found := false
	lookup := func(tx *Tx) error {
		_, found = tx.FindByOwner(owners[1234])
		return nil
	}
	allocs := testing.AllocsPerRun(100, func() { db.View(lookup) })
	if !found || allocs != 0 {
		t.Errorf("View+FindByOwner: found=%v, %.0f allocations per run, want 0", found, allocs)
	}
}

// filledDB returns a database holding one allocation per returned owner.
func filledDB(tb testing.TB, rows int) (*DB, []string) {
	db := Open(DefaultOptions())
	owners := make([]string, rows)
	if err := db.Update(func(tx *Tx) error {
		for i := range owners {
			owners[i] = fmt.Sprintf("owner-%05d", i)
			if _, err := tx.Acquire(owners[i], 0); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		tb.Fatal(err)
	}
	return db, owners
}

// BenchmarkFindByOwner is one read transaction looking up an allocated owner,
// the shape of the benchmarks/ isolate vnidb.find_owner_ns_rows*: ns/op must
// not grow with the table.
func BenchmarkFindByOwner(b *testing.B) {
	for _, rows := range []int{500, 5000, 50000} {
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			db, owners := filledDB(b, rows)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				found := false
				db.View(func(tx *Tx) error {
					_, found = tx.FindByOwner(owners[i%rows])
					return nil
				})
				if !found {
					b.Fatalf("owner %s not found", owners[i%rows])
				}
			}
		})
	}
}
