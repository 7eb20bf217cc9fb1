// Package vnidb is the VNI Database: the ground truth for VNI assignments
// in the cluster (paper §III-C2). The paper uses SQLite and leans on its
// ACID transactions to rule out time-of-check-to-time-of-use races between
// concurrent acquisition requests; this embedded store provides the same
// guarantees with stdlib only:
//
//   - serializable transactions (single-writer, two-phase: all mutations go
//     through an undo log and either commit atomically or roll back),
//   - a write-ahead log of committed transactions for crash recovery,
//   - an audit log table recording every allocation, release, user addition
//     and user removal, as the paper requires.
//
// The schema mirrors the paper's needs:
//
//	allocations(vni PRIMARY KEY, owner, state, allocated_at, released_at)
//	users(vni, user)            -- jobs redeeming a claim's VNI
//	audit(seq, at, op, vni, owner, user)
//	INDEX allocations(owner) WHERE state = allocated
//
// The owner index is transactional state like the table itself: it changes
// only where a row enters or leaves the Allocated state, and the undo log
// restores it together with the row.
package vnidb

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"

	"github.com/caps-sim/shs-k8s/internal/fabric"
	"github.com/caps-sim/shs-k8s/internal/sim"
)

// State of a VNI row.
type State int

// VNI states. A VNI leaves Quarantined only when a subsequent Acquire finds
// its quarantine expired (lazy transition, like the paper's 30-second rule).
const (
	Free State = iota // not currently in the allocations table
	Allocated
	Quarantined
)

// String names the state.
func (s State) String() string {
	switch s {
	case Free:
		return "free"
	case Allocated:
		return "allocated"
	case Quarantined:
		return "quarantined"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Errors.
var (
	ErrExhausted    = errors.New("vnidb: vni pool exhausted")
	ErrNotAllocated = errors.New("vnidb: vni not allocated")
	ErrHasUsers     = errors.New("vnidb: vni still has users")
	ErrUserExists   = errors.New("vnidb: user already registered")
	ErrNoSuchUser   = errors.New("vnidb: no such user")
	ErrClosed       = errors.New("vnidb: database closed")
	ErrTxDone       = errors.New("vnidb: transaction finished")
)

// Row is one allocation record.
type Row struct {
	VNI         fabric.VNI
	Owner       string
	State       State
	AllocatedAt sim.Time
	ReleasedAt  sim.Time
	Users       []string
}

// AuditOp enumerates audited operations.
type AuditOp string

// Audit operations.
const (
	OpAcquire    AuditOp = "acquire"
	OpRelease    AuditOp = "release"
	OpAddUser    AuditOp = "add_user"
	OpRemoveUser AuditOp = "remove_user"
)

// AuditEntry is one audit-log row.
type AuditEntry struct {
	Seq   uint64     `json:"seq"`
	At    sim.Time   `json:"at"`
	Op    AuditOp    `json:"op"`
	VNI   fabric.VNI `json:"vni"`
	Owner string     `json:"owner,omitempty"`
	User  string     `json:"user,omitempty"`
}

// Options configure the store.
type Options struct {
	// MinVNI and MaxVNI bound the allocatable pool (inclusive). VNIs 1-
	// MinVNI-1 are conventionally reserved for system use (the default
	// service's global VNI is 1).
	MinVNI, MaxVNI fabric.VNI
	// Quarantine is how long a released VNI is withheld from reallocation
	// (paper: 30 s, matched to the pod termination grace period).
	Quarantine sim.Duration
	// WAL, when non-nil, receives one JSON line per committed transaction.
	WAL io.Writer
}

// DefaultOptions mirror the deployment in the paper.
func DefaultOptions() Options {
	return Options{MinVNI: 1024, MaxVNI: 65535, Quarantine: 30e9}
}

type row struct {
	vni         fabric.VNI
	owner       string
	state       State
	allocatedAt sim.Time
	releasedAt  sim.Time
	users       map[string]bool // nil until the first AddUser
	// ownerNext chains the Allocated rows that share this row's owner,
	// newest acquisition first; DB.byOwner holds the head.
	ownerNext *row
}

// DB is the store. All access goes through View/Update transactions.
type DB struct {
	mu   sync.Mutex
	opts Options
	rows map[fabric.VNI]*row
	// byOwner indexes exactly the Allocated rows of rows by owner. Nothing
	// enforces that owners are unique, so an entry is the head of a chain
	// through row.ownerNext. Only ownerLink and ownerUnlink touch it.
	byOwner map[string]*row
	audit   []AuditEntry
	seq     uint64
	closed  bool
	// nextProbe rotates the allocation scan start so VNIs are handed out
	// round-robin rather than always reusing the lowest, reducing reuse
	// pressure on recently-released IDs.
	nextProbe fabric.VNI
	// tx is the one transaction record: whichever Update or View holds mu
	// owns it, and leaves it empty.
	tx txState
}

// txState is the transaction in progress: whether it is read-only, its undo
// log and the WAL records it will commit, both kept empty between
// transactions so their arrays serve the next one. handles is the unused
// rest of the slab the handles are cut from.
type txState struct {
	readonly bool
	undo     []undoEntry
	walOps   []walRecord
	handles  []Tx
}

// txSlab is how many transaction handles one allocation provides.
const txSlab = 64

// undoKind names the change one undo entry reverses.
type undoKind uint8

const (
	undoInsert     undoKind = iota // insertAllocated put r in the table over displaced
	undoRelease                    // Release moved r out of Allocated
	undoAddUser                    // AddUser added user to r
	undoRemoveUser                 // RemoveUser took user from r
	undoAudit                      // logOp appended one audit row
)

// undoEntry is one step of the undo log: the row a mutation changed and
// what it overwrote. Rollback applies the entries newest first.
type undoEntry struct {
	kind      undoKind
	r         *row
	displaced *row            // undoInsert: the row v held before, nil for none
	probe     fabric.VNI      // undoInsert: the round-robin cursor before
	pred      *row            // undoRelease: r's owner-chain predecessor
	released  sim.Time        // undoRelease: r's releasedAt before
	users     map[string]bool // undoRelease: r's users before
	user      string          // undoAddUser, undoRemoveUser
}

// Open creates an empty database.
func Open(opts Options) *DB {
	if opts.MaxVNI < opts.MinVNI {
		panic("vnidb: MaxVNI < MinVNI")
	}
	return &DB{
		opts:      opts,
		rows:      make(map[fabric.VNI]*row),
		byOwner:   make(map[string]*row),
		nextProbe: opts.MinVNI,
	}
}

// ownerLink enters r, which must be Allocated, into its owner's chain behind
// pred, or at the head when pred is nil. A new acquisition links at the
// head; an undo passes the pred that ownerUnlink returned to put the row
// back exactly where it was.
func (db *DB) ownerLink(r, pred *row) {
	if pred == nil {
		r.ownerNext = db.byOwner[r.owner]
		db.byOwner[r.owner] = r
		return
	}
	r.ownerNext = pred.ownerNext
	pred.ownerNext = r
}

// ownerUnlink takes r out of its owner's chain as it leaves the Allocated
// state or the table, and returns its predecessor (nil if r was the head).
func (db *DB) ownerUnlink(r *row) (pred *row) {
	if head := db.byOwner[r.owner]; head != r {
		for pred = head; pred.ownerNext != r; pred = pred.ownerNext {
		}
		pred.ownerNext = r.ownerNext
	} else if r.ownerNext != nil {
		db.byOwner[r.owner] = r.ownerNext
	} else {
		delete(db.byOwner, r.owner)
	}
	r.ownerNext = nil
	return pred
}

// Options returns the open options.
func (db *DB) Options() Options { return db.opts }

// Close marks the database closed; subsequent transactions fail.
func (db *DB) Close() {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.closed = true
}

// Tx is the handle of one serializable transaction. Mutations accumulate
// undo entries in the database's transaction record; if the transaction
// function returns an error everything is rolled back. A handle serves one
// transaction only: once its Update or View returns, every call on it
// fails with ErrTxDone (or finds nothing), however many transactions
// follow.
type Tx struct {
	db   *DB
	done bool
}

type walRecord struct {
	Op    AuditOp    `json:"op"`
	VNI   fabric.VNI `json:"vni"`
	Owner string     `json:"owner,omitempty"`
	User  string     `json:"user,omitempty"`
	At    sim.Time   `json:"at"`
}

// Update runs fn in a read-write transaction. The database lock is held for
// the duration, giving serializable isolation (as SQLite's single-writer
// model does).
func (db *DB) Update(fn func(*Tx) error) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return ErrClosed
	}
	tx := db.begin(false)
	defer db.end(tx)
	if err := fn(tx); err != nil {
		db.rollback()
		return err
	}
	db.commit()
	return nil
}

// View runs fn in a read-only transaction. Mutating calls fail.
func (db *DB) View(fn func(*Tx) error) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return ErrClosed
	}
	tx := db.begin(true)
	defer db.end(tx)
	return fn(tx)
}

// begin starts a transaction on the database's record, under mu, and cuts
// its handle from the slab: a handle is never reused, so one kept past its
// transaction stays done whatever runs after it.
func (db *DB) begin(readonly bool) *Tx {
	t := &db.tx
	if len(t.handles) == 0 {
		t.handles = make([]Tx, txSlab)
	}
	tx := &t.handles[0]
	t.handles = t.handles[1:]
	tx.db = db
	t.readonly = readonly
	return tx
}

// end retires tx and empties the record's logs for the next transaction,
// dropping the rows and strings they referenced.
func (db *DB) end(tx *Tx) {
	tx.done = true
	t := &db.tx
	clear(t.undo)
	clear(t.walOps)
	t.undo, t.walOps = t.undo[:0], t.walOps[:0]
}

func (db *DB) rollback() {
	undo := db.tx.undo
	for i := len(undo) - 1; i >= 0; i-- {
		db.revert(&undo[i])
	}
}

// revert undoes one logged change.
func (db *DB) revert(u *undoEntry) {
	r := u.r
	switch u.kind {
	case undoInsert:
		db.nextProbe = u.probe
		db.ownerUnlink(r)
		if u.displaced == nil {
			delete(db.rows, r.vni)
		} else {
			db.rows[r.vni] = u.displaced
		}
	case undoRelease:
		r.state, r.releasedAt, r.users = Allocated, u.released, u.users
		db.ownerLink(r, u.pred)
	case undoAddUser:
		delete(r.users, u.user)
	case undoRemoveUser:
		r.users[u.user] = true
	case undoAudit:
		db.audit = db.audit[:len(db.audit)-1]
		db.seq--
	}
}

func (db *DB) commit() {
	if ops := db.tx.walOps; len(ops) > 0 { // logOp collects them only when a WAL is attached
		line, err := json.Marshal(ops)
		if err == nil {
			line = append(line, '\n')
			_, _ = db.opts.WAL.Write(line)
		}
	}
}

func (tx *Tx) check(write bool) error {
	if tx.done {
		return ErrTxDone
	}
	if write && tx.db.tx.readonly {
		return errors.New("vnidb: write in read-only transaction")
	}
	return nil
}

// logUndo appends one entry to the transaction's undo log.
func (tx *Tx) logUndo(u undoEntry) {
	t := &tx.db.tx
	t.undo = append(t.undo, u)
}

func (tx *Tx) logOp(op AuditOp, vni fabric.VNI, owner, user string, at sim.Time) {
	db := tx.db
	db.seq++
	seq := db.seq
	db.audit = append(db.audit, AuditEntry{Seq: seq, At: at, Op: op, VNI: vni, Owner: owner, User: user})
	tx.logUndo(undoEntry{kind: undoAudit})
	if db.opts.WAL != nil {
		db.tx.walOps = append(db.tx.walOps, walRecord{Op: op, VNI: vni, Owner: owner, User: user, At: at})
	}
}

// Acquire atomically finds a VNI that is free (or whose quarantine has
// expired) and allocates it to owner. The check and the insert are one
// transaction, which is exactly what rules out the TOCTOU double-allocation
// the paper warns about.
func (tx *Tx) Acquire(owner string, now sim.Time) (fabric.VNI, error) {
	if err := tx.check(true); err != nil {
		return 0, err
	}
	db := tx.db
	n := db.opts.MaxVNI - db.opts.MinVNI + 1
	for i := fabric.VNI(0); i < n; i++ {
		v := db.opts.MinVNI + (db.nextProbe-db.opts.MinVNI+i)%n
		r, exists := db.rows[v]
		if exists && r.state == Allocated {
			continue
		}
		if exists && r.state == Quarantined {
			if now.Sub(r.releasedAt) < db.opts.Quarantine {
				continue
			}
		}
		// Allocate v.
		tx.insertAllocated(v, owner, now)
		return v, nil
	}
	return 0, ErrExhausted
}

// insertAllocated allocates v to owner over whatever non-Allocated row held
// it: it enters the row into the table and the owner index, advances the
// round-robin cursor past v and logs the acquisition. Acquire and WAL replay
// share it so a recovered database is in the state the original was.
func (tx *Tx) insertAllocated(v fabric.VNI, owner string, now sim.Time) {
	db := tx.db
	nr := &row{vni: v, owner: owner, state: Allocated, allocatedAt: now}
	tx.logUndo(undoEntry{kind: undoInsert, r: nr, displaced: db.rows[v], probe: db.nextProbe})
	db.rows[v] = nr
	db.ownerLink(nr, nil)
	// A replayed VNI from outside the pool (the bounds changed between
	// runs) leaves the cursor alone.
	if v >= db.opts.MinVNI && v <= db.opts.MaxVNI {
		n := db.opts.MaxVNI - db.opts.MinVNI + 1
		db.nextProbe = db.opts.MinVNI + (v-db.opts.MinVNI+1)%n
	}
	tx.logOp(OpAcquire, v, owner, "", now)
}

// Release moves an allocated VNI to quarantine, clearing its users. After
// Options.Quarantine it becomes reallocatable.
func (tx *Tx) Release(vni fabric.VNI, now sim.Time) error {
	if err := tx.check(true); err != nil {
		return err
	}
	db := tx.db
	r, ok := db.rows[vni]
	if !ok || r.state != Allocated {
		return fmt.Errorf("%w: %d", ErrNotAllocated, vni)
	}
	pred := db.ownerUnlink(r)
	tx.logUndo(undoEntry{kind: undoRelease, r: r, pred: pred, released: r.releasedAt, users: r.users})
	r.state = Quarantined
	r.releasedAt = now
	r.users = nil
	tx.logOp(OpRelease, vni, r.owner, "", now)
	return nil
}

// AddUser registers user (e.g. a redeeming job) on an allocated VNI.
func (tx *Tx) AddUser(vni fabric.VNI, user string, now sim.Time) error {
	if err := tx.check(true); err != nil {
		return err
	}
	r, ok := tx.db.rows[vni]
	if !ok || r.state != Allocated {
		return fmt.Errorf("%w: %d", ErrNotAllocated, vni)
	}
	if r.users[user] {
		return fmt.Errorf("%w: %q on vni %d", ErrUserExists, user, vni)
	}
	if r.users == nil {
		r.users = make(map[string]bool)
	}
	r.users[user] = true
	tx.logUndo(undoEntry{kind: undoAddUser, r: r, user: user})
	tx.logOp(OpAddUser, vni, r.owner, user, now)
	return nil
}

// RemoveUser deregisters a user from a VNI.
func (tx *Tx) RemoveUser(vni fabric.VNI, user string, now sim.Time) error {
	if err := tx.check(true); err != nil {
		return err
	}
	r, ok := tx.db.rows[vni]
	if !ok || r.state != Allocated {
		return fmt.Errorf("%w: %d", ErrNotAllocated, vni)
	}
	if !r.users[user] {
		return fmt.Errorf("%w: %q on vni %d", ErrNoSuchUser, user, vni)
	}
	delete(r.users, user)
	tx.logUndo(undoEntry{kind: undoRemoveUser, r: r, user: user})
	tx.logOp(OpRemoveUser, vni, r.owner, user, now)
	return nil
}

// UserCount returns the number of registered users of vni.
func (tx *Tx) UserCount(vni fabric.VNI) (int, error) {
	if err := tx.check(false); err != nil {
		return 0, err
	}
	r, ok := tx.db.rows[vni]
	if !ok || r.state != Allocated {
		return 0, fmt.Errorf("%w: %d", ErrNotAllocated, vni)
	}
	return len(r.users), nil
}

// Get returns the row for vni. State Free with ok=false means unknown.
func (tx *Tx) Get(vni fabric.VNI) (Row, bool) {
	if tx.done {
		return Row{}, false
	}
	return exported(tx.db.rows[vni])
}

// FindByOwner returns the allocated VNI owned by owner, if any: one lookup in
// the owner index. Owners are unique per allocation by construction (the VNI
// service derives them from object UIDs) but the database does not enforce
// it; when several allocated rows share an owner, the most recently acquired
// one is returned.
func (tx *Tx) FindByOwner(owner string) (Row, bool) {
	if tx.done {
		return Row{}, false
	}
	return exported(tx.db.byOwner[owner])
}

// FindByOwnerKey is FindByOwner for a key still in the buffer it was built
// in: a caller that needs the string only for a new owner never makes one.
func (tx *Tx) FindByOwnerKey(owner []byte) (Row, bool) {
	if tx.done {
		return Row{}, false
	}
	return exported(tx.db.byOwner[string(owner)])
}

func exported(r *row) (Row, bool) {
	if r == nil {
		return Row{}, false
	}
	return exportRow(r), true
}

// List returns all non-free rows sorted by VNI.
func (tx *Tx) List() []Row {
	if tx.done {
		return nil
	}
	out := make([]Row, 0, len(tx.db.rows))
	for _, r := range tx.db.rows {
		out = append(out, exportRow(r))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].VNI < out[j].VNI })
	return out
}

func exportRow(r *row) Row {
	users := make([]string, 0, len(r.users))
	for u := range r.users {
		users = append(users, u)
	}
	sort.Strings(users)
	return Row{
		VNI: r.vni, Owner: r.owner, State: r.state,
		AllocatedAt: r.allocatedAt, ReleasedAt: r.releasedAt, Users: users,
	}
}

// Audit returns a copy of the audit log.
func (db *DB) Audit() []AuditEntry {
	db.mu.Lock()
	defer db.mu.Unlock()
	out := make([]AuditEntry, len(db.audit))
	copy(out, db.audit)
	return out
}

// Stats summarizes pool occupancy.
type Stats struct {
	Allocated   int
	Quarantined int
	PoolSize    int
}

// Stats returns occupancy counters.
func (db *DB) Stats() Stats {
	db.mu.Lock()
	defer db.mu.Unlock()
	st := Stats{PoolSize: int(db.opts.MaxVNI - db.opts.MinVNI + 1)}
	for _, r := range db.rows {
		switch r.state {
		case Allocated:
			st.Allocated++
		case Quarantined:
			st.Quarantined++
		}
	}
	return st
}
