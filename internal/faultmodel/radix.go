package faultmodel

import "math/bits"

// keyedIndex is one radix-sort element: a candidate's sort key (the
// IEEE-754 bits of its positive rel) and its bit index.
type keyedIndex struct {
	key uint64
	idx uint32
}

// maxDigitBits caps the width of one counting pass: at most 2048
// buckets, whose 8 KiB count table stays in L1.
const maxDigitBits = 11

// insertionMax is the longest run sortKeyed finishes with an insertion
// sort; longer runs take another counting pass.
const insertionMax = 32

// sortKeyed stably sorts a by key in place, using buf (len(buf) >=
// len(a)) as scratch. Stability makes equal keys keep their input
// order.
//
// It is an MSD radix sort on the key's offset from the run's smallest
// key, which is monotone in the key. One counting pass distributes a
// run on the top bits of that offset, about one bucket per element,
// and each bucket is finished the same way, or by an insertion sort
// once it holds at most insertionMax keys. A bucket's offsets span at
// most 2^(64 − 6·depth) at depth ≥ 1, so the recursion is at most 11
// deep and every element costs O(depth + insertionMax): no input is
// quadratic.
func sortKeyed(a, buf []keyedIndex) {
	var count [1 << maxDigitBits]uint32
	sortRun(a, buf[:len(a)], &count)
}

// sortRun stably sorts a in place, with spare (same length) and count
// as scratch.
func sortRun(a, spare []keyedIndex, count *[1 << maxDigitBits]uint32) {
	if len(a) <= insertionMax {
		insertionSortKeyed(a)
		return
	}
	lo, hi := a[0].key, a[0].key
	for _, e := range a[1:] {
		lo = min(lo, e.key)
		hi = max(hi, e.key)
	}
	if lo == hi {
		return
	}
	digitBits := min(bits.Len(uint(len(a))), maxDigitBits)
	shift := max(bits.Len64(hi-lo)-digitBits, 0)

	// Counting pass: starts[d] is bucket d's first slot, advanced by
	// the scatter to its end.
	starts := count[:1<<digitBits]
	clear(starts)
	for _, e := range a {
		starts[(e.key-lo)>>shift]++
	}
	sum := uint32(0)
	for d, c := range starts {
		starts[d] = sum
		sum += c
	}
	for _, e := range a {
		d := (e.key - lo) >> shift
		spare[starts[d]] = e
		starts[d]++
	}
	copy(a, spare)

	// The recursion reuses count, so find the buckets again from the
	// digits of the now-grouped run.
	for i := 0; i < len(a); {
		d := (a[i].key - lo) >> shift
		j := i + 1
		for j < len(a) && (a[j].key-lo)>>shift == d {
			j++
		}
		if j-i > 1 {
			sortRun(a[i:j], spare[i:j], count)
		}
		i = j
	}
}

// insertionSortKeyed stably sorts a short run by key.
func insertionSortKeyed(a []keyedIndex) {
	for i := 1; i < len(a); i++ {
		e := a[i]
		j := i
		for ; j > 0 && a[j-1].key > e.key; j-- {
			a[j] = a[j-1]
		}
		a[j] = e
	}
}
