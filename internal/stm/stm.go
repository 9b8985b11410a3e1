// Package stm is a small word-based software transactional memory in the
// style of TL2 (Dice, Shalev, Shavit), used as the substitute for DeuceSTM
// in the paper's STM baselines (RBSTM and SkipListSTM).
//
// The design follows TL2: a global version clock, a versioned lock per
// transactional variable, invisible reads validated against the
// transaction's read version, lazy (buffered) writes, and commit-time
// locking of the write set followed by read-set validation. Conflicts abort
// the transaction, which is retried with randomized exponential backoff, so
// transactions are obstruction-free rather than lock-free — matching the
// progress guarantee of the STM trees the paper compares against.
package stm

import (
	"math/rand/v2"
	"runtime"
	"sync/atomic"
)

// clock is the global version clock shared by all transactions.
var clock atomic.Uint64

// lockedBit marks a versioned lock as held; the remaining bits hold the
// version number (shifted left by one).
const lockedBit uint64 = 1

// Var is a transactional variable of type T. It must only be accessed
// through Read and Write inside a transaction (or through NewVar / Load at
// times when no transactions are running, e.g. during construction).
//
// The current value is kept behind an atomic pointer to a freshly allocated
// box, so concurrent speculative readers can never observe a torn value;
// version validation then decides whether the read is used or the
// transaction retries.
type Var[T any] struct {
	lock atomic.Uint64 // version<<1 | lockedBit
	val  atomic.Pointer[T]
}

// NewVar returns a transactional variable initialized to v.
func NewVar[T any](v T) *Var[T] {
	tv := &Var[T]{}
	tv.val.Store(&v)
	return tv
}

// Load reads the variable outside of any transaction. It must only be used
// when no concurrent transactions can write the variable (for example after
// all workers have finished); use Read inside transactions.
func (v *Var[T]) Load() T { return *v.val.Load() }

// handle is the type-erased view of a Var used by the commit machinery.
type handle interface {
	tryLock() (uint64, bool)
	unlock(version uint64)
	releaseTo(newVersion uint64)
	sampleVersion() (version uint64, locked bool)
	store(val any)
}

func (v *Var[T]) tryLock() (uint64, bool) {
	cur := v.lock.Load()
	if cur&lockedBit != 0 {
		return 0, false
	}
	if v.lock.CompareAndSwap(cur, cur|lockedBit) {
		return cur >> 1, true
	}
	return 0, false
}

func (v *Var[T]) unlock(version uint64) { v.lock.Store(version << 1) }

func (v *Var[T]) releaseTo(newVersion uint64) { v.lock.Store(newVersion << 1) }

func (v *Var[T]) sampleVersion() (uint64, bool) {
	cur := v.lock.Load()
	return cur >> 1, cur&lockedBit != 0
}

func (v *Var[T]) store(val any) {
	t := val.(T)
	v.val.Store(&t)
}

// retrySignal is panicked by Read/Write when a conflict is detected and
// recovered by Atomically, which then retries the transaction.
type retrySignal struct{}

// Txn is the per-attempt transaction descriptor passed to the function run
// by Atomically.
type Txn struct {
	readVersion uint64
	reads       []readEntry
	writes      []writeEntry
}

type readEntry struct {
	h       handle
	version uint64
}

type writeEntry struct {
	h   handle
	val any
}

// abort abandons the current attempt.
func (tx *Txn) abort() {
	panic(retrySignal{})
}

// Read returns the value of v as observed by the transaction. It validates
// that the variable has not been written since the transaction began and
// honours the transaction's own buffered writes.
func Read[T any](tx *Txn, v *Var[T]) T {
	// Read-your-writes: the write set is usually tiny, linear scan is fine.
	for i := len(tx.writes) - 1; i >= 0; i-- {
		if tx.writes[i].h == handle(v) {
			return tx.writes[i].val.(T)
		}
	}
	ver1, locked := v.sampleVersion()
	if locked || ver1 > tx.readVersion {
		tx.abort()
	}
	val := *v.val.Load()
	ver2, locked := v.sampleVersion()
	if locked || ver2 != ver1 {
		tx.abort()
	}
	tx.reads = append(tx.reads, readEntry{h: v, version: ver1})
	return val
}

// Write buffers a write of val to v; it takes effect only if the
// transaction commits.
func Write[T any](tx *Txn, v *Var[T], val T) {
	for i := range tx.writes {
		if tx.writes[i].h == handle(v) {
			tx.writes[i].val = val
			return
		}
	}
	tx.writes = append(tx.writes, writeEntry{h: v, val: val})
}

// Atomically runs fn as a transaction, retrying it until it commits, and
// returns fn's result. fn must perform all shared accesses through Read and
// Write, must be free of side effects other than through the transaction,
// and may be executed multiple times.
func Atomically[R any](fn func(tx *Txn) R) R {
	backoff := 1
	tx := &Txn{}
	for {
		tx.readVersion = clock.Load()
		tx.reads = tx.reads[:0]
		tx.writes = tx.writes[:0]

		result, aborted := runAttempt(fn, tx)
		if !aborted && tx.commit() {
			return result
		}
		// Conflict: back off for a randomized, exponentially growing number
		// of spins to avoid convoying, then retry.
		spins := rand.IntN(backoff) + 1
		for i := 0; i < spins; i++ {
			runtime.Gosched()
		}
		if backoff < 1<<10 {
			backoff <<= 1
		}
	}
}

// runAttempt executes one attempt of fn, converting a retry panic into an
// aborted flag.
func runAttempt[R any](fn func(tx *Txn) R, tx *Txn) (result R, aborted bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(retrySignal); ok {
				aborted = true
				return
			}
			panic(r)
		}
	}()
	result = fn(tx)
	return result, false
}

// commit performs TL2 commit: lock the write set, validate the read set,
// advance the clock, publish the writes and release the locks.
func (tx *Txn) commit() bool {
	if len(tx.writes) == 0 {
		// Read-only transactions commit immediately: all reads were
		// individually validated against readVersion.
		return true
	}
	// Acquire the write-set locks; abort on any conflict.
	locked := 0
	versions := make([]uint64, len(tx.writes))
	for i, w := range tx.writes {
		ver, ok := w.h.tryLock()
		if !ok {
			for j := 0; j < locked; j++ {
				tx.writes[j].h.unlock(versions[j])
			}
			return false
		}
		versions[i] = ver
		locked++
		if ver > tx.readVersion {
			for j := 0; j <= i; j++ {
				tx.writes[j].h.unlock(versions[j])
			}
			return false
		}
	}
	writeVersion := clock.Add(1)
	// Validate the read set: every variable read must still be at a version
	// no newer than readVersion and not locked by another transaction.
	for _, r := range tx.reads {
		ver, isLocked := r.h.sampleVersion()
		if isLocked {
			if !tx.inWriteSet(r.h) {
				tx.releaseAll(versions)
				return false
			}
			continue
		}
		if ver != r.version {
			tx.releaseAll(versions)
			return false
		}
	}
	// Publish the writes and release the locks with the new version.
	for _, w := range tx.writes {
		w.h.store(w.val)
		w.h.releaseTo(writeVersion)
	}
	return true
}

func (tx *Txn) inWriteSet(h handle) bool {
	for _, w := range tx.writes {
		if w.h == h {
			return true
		}
	}
	return false
}

func (tx *Txn) releaseAll(versions []uint64) {
	for i, w := range tx.writes {
		w.h.unlock(versions[i])
	}
}
