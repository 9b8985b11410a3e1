package epoch

import "testing"

// TestRecyclerLifetime pins the epoch counts of a Recycler: an object comes
// back once the epoch is two past the one it was put at and not before, so
// a reader pinned when it was put holds it; objects come back oldest first;
// one that has stayed reusable for two more grace periods while the next one
// is reusable too is dropped, and not before; nothing comes back while a
// watchdog eviction is active; the Recycler advances the epoch itself when
// nothing else does; and its ring shrinks back after a surplus is dropped.
func TestRecyclerLifetime(t *testing.T) {
	Drain()
	var r Recycler[int]
	objs := make([]*int, 4)
	for i := range objs {
		objs[i] = new(int)
	}
	// advanceOrFail moves the epoch by one, which nothing pinned blocks.
	advanceOrFail := func() {
		t.Helper()
		if !advance() {
			t.Fatal("the epoch did not advance with nothing pinned")
		}
	}

	reader := Pin()
	for _, p := range objs {
		r.Put(p)
	}
	advanceOrFail() // the reader is at the current epoch: one advance
	if advance() {
		t.Fatal("the epoch advanced twice past a pinned reader")
	}
	if p := r.Get(); p != nil {
		t.Fatal("Get returned an object put while a reader that is still pinned was")
	}
	Unpin(reader)
	if p := r.Get(); p != nil {
		t.Fatal("Get returned an object one epoch after it was put")
	}
	advanceOrFail()
	if p := r.Get(); p != objs[0] {
		t.Fatalf("Get two epochs after the Put = %p, want the oldest object %p", p, objs[0])
	}
	if p := r.Get(); p != objs[1] {
		t.Fatalf("second Get = %p, want %p", p, objs[1])
	}

	// objs[2] has been reusable for three epochs, with objs[3] behind it
	// reusable too: not yet surplus.
	for range 3 {
		advanceOrFail()
	}
	if p := r.Get(); p != objs[2] {
		t.Fatalf("Get three epochs on = %p, want %p", p, objs[2])
	}
	// Two grace periods past their own, objs[3] (still at the head) and p
	// are surplus and go, and q, with nothing reusable behind it, comes back.
	p, q := new(int), new(int)
	r.Put(p)
	r.Put(q)
	for range 3 * graceEpochs {
		advanceOrFail()
	}
	r.Put(objs[0])
	if got := r.Get(); got != q {
		t.Fatalf("Get after two grace periods of surplus = %p, want %p (%p and %p dropped)", got, q, objs[3], p)
	}
	if n := r.Len(); n != 1 {
		t.Fatalf("Len = %d, want 1", n)
	}

	degradedPins.Add(1)
	advanceOrFail()
	advanceOrFail()
	if p := r.Get(); p != nil || r.Len() != 0 {
		t.Fatalf("Get during an eviction = %p with %d left, want nil with the object dropped", p, r.Len())
	}
	degradedPins.Add(-1)

	// Nothing else moves the epoch here: the Recycler's Gets do, every
	// advanceEvery of them.
	r.Put(objs[1])
	for misses := 0; r.Get() == nil; misses++ {
		if misses > 2*advanceEvery {
			t.Fatalf("%d Gets did not advance the epoch two past a Put", misses)
		}
	}

	// A long pin lets the ring grow; once the epoch moves on, the surplus
	// goes and the ring shrinks back as the Recycler is used again.
	reader = Pin()
	for range 1000 {
		r.Put(new(int))
	}
	Unpin(reader)
	for range 3 * graceEpochs {
		advanceOrFail()
	}
	if p := r.Get(); p == nil || r.Len() != 0 {
		t.Fatalf("Get after a long pin = %p with %d left, want the newest object and none left", p, r.Len())
	}
	for range 8 {
		r.Put(new(int))
		advanceOrFail()
		advanceOrFail()
		if r.Get() == nil {
			t.Fatal("Get two epochs after a Put returned nil")
		}
	}
	if n := len(r.ring); n != 8 {
		t.Fatalf("ring of %d after the surplus went, want 8", n)
	}
}
