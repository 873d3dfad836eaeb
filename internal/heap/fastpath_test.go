package heap

import (
	"errors"
	"slices"
	"testing"

	"kflex/internal/faultinject"
)

// Fast-path fuzz input flags.
const (
	fpClosed   = 1 << iota // Close the heap before the access
	fpPlanFire             // attach a fault plan armed to fire HeapGuard at the access's offset
	fpPlanIdle             // attach a fault plan with nothing armed
)

// fastPathSeeds covers both guard zones, the heap's edges, page
// boundaries, every width aligned and misaligned, unmapped pages, a
// closed heap and an attached fault plan.
var fastPathSeeds = []struct {
	off   int64
	n     uint8 // width selector: 1 << (n % 4) bytes
	store bool
	pages uint16 // mapped-page bitmap
	flags uint8
}{
	{off: 0, n: 3, pages: 0xffff},
	{off: 64, n: 3, store: true, pages: 0xffff},
	{off: 1<<16 - 8, n: 3, pages: 0xffff},              // last word
	{off: 1<<16 - 1, n: 0, store: true, pages: 0xffff}, // last byte
	{off: 1<<16 - 4, n: 3, pages: 0xffff},              // runs off the end
	{off: 1 << 16, n: 3, pages: 0xffff},                // first byte of the upper guard zone
	{off: 1<<16 + GuardZone - 8, n: 3, store: true, pages: 0xffff},
	{off: -8, n: 3, pages: 0xffff},                          // lower guard zone
	{off: -GuardZone, n: 2, store: true, pages: 0xffff},     // bottom of the lower guard zone
	{off: PageSize - 4, n: 3, pages: 0xffff},                // straddles two pages
	{off: PageSize - 4, n: 3, store: true, pages: 0x0001},   // straddles into an unmapped page
	{off: PageSize - 8, n: 3, pages: 0x0001},                // last word of a mapped page
	{off: PageSize, n: 3, pages: 0x0001},                    // first word of an unmapped page
	{off: 3 * PageSize, n: 3, store: true, pages: 0xfff7},   // unmapped page, store
	{off: 8*PageSize + 2, n: 1, pages: 0xffff},              // aligned u16
	{off: 8*PageSize + 3, n: 1, pages: 0xffff},              // misaligned u16
	{off: 8*PageSize + 4, n: 2, store: true, pages: 0xffff}, // aligned u32 store
	{off: 8*PageSize + 6, n: 2, pages: 0xffff},              // misaligned u32, one word
	{off: 8*PageSize + 7, n: 3, store: true, pages: 0xffff}, // straddles two words
	{off: 8*PageSize + 5, n: 0, store: true, pages: 0xffff}, // byte store
	{off: 128, n: 3, pages: 0xffff, flags: fpClosed},
	{off: 128, n: 3, store: true, pages: 0xffff, flags: fpClosed},
	{off: 0, n: 3, pages: 0xffff, flags: fpPlanFire},
	{off: 256, n: 3, store: true, pages: 0xffff, flags: fpPlanFire},
	{off: 256, n: 2, pages: 0xffff, flags: fpPlanIdle},
	{off: -16, n: 3, pages: 0xffff, flags: fpPlanFire},
}

// FuzzHeapFastPath is the oracle for the check-once accessors: an access
// that tries FastLoad/FastStore and takes View.Load/View.Store when they
// decline — the lowered tier's composition — must be indistinguishable
// from the full path alone on an identically prepared heap. It must read
// the same value, raise the same fault kind at the same address, leave the
// same heap contents and record the same fault-injection trace. A declined
// fast access must write nothing, and the fast path may never succeed
// where the full path faults.
func FuzzHeapFastPath(f *testing.F) {
	for _, s := range fastPathSeeds {
		f.Add(s.off, s.n, s.store, s.pages, s.flags, uint64(0x1122334455667788))
	}
	f.Fuzz(func(t *testing.T, off int64, nsel uint8, store bool, pages uint16, flags uint8, val uint64) {
		const size = 1 << 16
		n := 1 << (nsel % 4)
		build := func() (*Heap, *faultinject.Plan) {
			h := newHeap(t, size)
			for p := uint64(0); p < size/PageSize; p++ {
				if pages&(1<<p) != 0 {
					if err := h.Populate(p*PageSize, PageSize); err != nil {
						t.Fatal(err)
					}
				}
			}
			for i := range h.words {
				h.words[i] = uint64(i) * 0x0101010101010101
			}
			var plan *faultinject.Plan
			if flags&(fpPlanFire|fpPlanIdle) != 0 {
				plan = faultinject.NewPlan(1)
				if flags&fpPlanFire != 0 {
					plan.FailNth(faultinject.HeapGuard, uint64(off), 1)
				}
				h.SetFaultPlan(plan)
				plan.Enable()
			}
			if flags&fpClosed != 0 {
				h.Close()
			}
			return h, plan
		}
		fast, fastPlan := build()
		ref, refPlan := build()
		addr := fast.ExtBase() + uint64(off)
		if ref.ExtBase() != fast.ExtBase() {
			t.Fatalf("twin heaps at %#x and %#x", fast.ExtBase(), ref.ExtBase())
		}

		var got, want uint64
		var gotErr, wantErr error
		if store {
			before := slices.Clone(fast.words)
			ok := fast.FastStore(uint64(off), n, val)
			if !ok {
				if !slices.Equal(before, fast.words) {
					t.Fatalf("declined FastStore(%#x, %d) wrote to the heap", off, n)
				}
				gotErr = fast.ExtView().Store(addr, n, val)
			}
			wantErr = ref.ExtView().Store(addr, n, val)
			if ok && wantErr != nil {
				t.Fatalf("FastStore(%#x, %d) succeeded where Store faults: %v", off, n, wantErr)
			}
		} else {
			var ok bool
			got, ok = fast.FastLoad(uint64(off), n)
			if !ok {
				got, gotErr = fast.ExtView().Load(addr, n)
			}
			want, wantErr = ref.ExtView().Load(addr, n)
			if ok && wantErr != nil {
				t.Fatalf("FastLoad(%#x, %d) succeeded where Load faults: %v", off, n, wantErr)
			}
		}
		if got != want || !sameFault(gotErr, wantErr) {
			t.Fatalf("access %#x/%d (store=%v): fast path gave %#x, %v; full path %#x, %v",
				off, n, store, got, gotErr, want, wantErr)
		}
		if !slices.Equal(fast.words, ref.words) {
			t.Fatalf("access %#x/%d (store=%v): heap contents diverge", off, n, store)
		}
		if fastPlan != nil && !slices.Equal(fastPlan.Events(), refPlan.Events()) {
			t.Fatalf("fault traces diverge: %v vs %v", fastPlan.Events(), refPlan.Events())
		}
	})
}

// sameFault reports whether a and b are both nil or both heap faults of
// the same kind at the same address.
func sameFault(a, b error) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	var fa, fb *Fault
	return errors.As(a, &fa) && errors.As(b, &fb) && *fa == *fb
}

// TestFastPathDeclines pins the cases the check-once accessors must hand
// to the full path, so a fuzz run that never reaches them cannot hide a
// fast path that stopped checking.
func TestFastPathDeclines(t *testing.T) {
	h := newHeap(t, 1<<16)
	if err := h.Populate(0, PageSize); err != nil {
		t.Fatal(err)
	}
	if _, ok := h.FastLoad(8, 8); !ok {
		t.Fatal("aligned load on a mapped page declined")
	}
	if !h.FastStore(8, 8, 1) {
		t.Fatal("aligned 8-byte store on a mapped page declined")
	}
	for _, c := range []struct {
		name string
		off  uint64
		n    int
	}{
		{"misaligned", 4, 8},
		{"unmapped page", PageSize, 8},
		{"upper guard zone", 1 << 16, 8},
		{"lower guard zone", ^uint64(7), 8},
	} {
		if _, ok := h.FastLoad(c.off, c.n); ok {
			t.Errorf("FastLoad %s: served", c.name)
		}
		if h.FastStore(c.off, c.n, 1) {
			t.Errorf("FastStore %s: served", c.name)
		}
	}
	if h.FastStore(8, 4, 1) {
		t.Error("narrow store served; it must merge through the full path")
	}
	if _, ok := new(Heap).FastLoad(0, 8); ok {
		t.Error("the zero Heap served a load")
	}
	h.SetFaultPlan(faultinject.NewPlan(1))
	if _, ok := h.FastLoad(8, 8); ok || h.FastPathOK() {
		t.Error("fast path served a heap with a fault plan attached")
	}
	h.SetFaultPlan(nil)
	h.Close()
	if _, ok := h.FastLoad(8, 8); ok || h.FastPathOK() {
		t.Error("fast path served a closed heap")
	}
}
