// Package cache implements Angstrom's reconfigurable cache substrate
// (§4.2.1) and its adaptive coherence protocols (§4.2.2):
//
//   - a set-associative cache with way and set disabling, so the SEEC
//     runtime can shrink a core's L2 from 256 KB down to 16 KB "for the
//     same performance" at lower power [4];
//   - a voltage-scalable SRAM energy/latency model (the paper's cores
//     "need to feature voltage-scalable SRAMs");
//   - directory-based MSI, shared-NUCA, and ARCc-style adaptive
//     coherence that picks the better protocol per application [19].
package cache

import (
	"fmt"
	"math/bits"
)

// Stats counts cache events. All counters are cumulative.
type Stats struct {
	Accesses      uint64
	Hits          uint64
	Misses        uint64
	Evictions     uint64
	Writebacks    uint64
	Invalidations uint64
}

// MissRate returns misses/accesses (0 before any access).
func (s Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// line is one cache line's bookkeeping.
type line struct {
	tag   uint64
	valid bool
	dirty bool
	lru   uint64 // last-touch stamp
}

// Cache is a set-associative cache with run-time way and set disabling.
// Addresses are cache-line granular (the workload generators emit line
// addresses directly).
type Cache struct {
	totalSets int // physical sets
	ways      int // physical ways
	lineBytes int

	enabledWays int
	setShift    uint // sets disabled in powers of two: enabled = total >> shift

	sets  [][]line
	stamp uint64

	// stats sits on its own cache lines: a Cache belongs to one tile (and
	// under the parallel sweep engine to one worker), and its per-access
	// counter increments must not write-share a line with a neighbouring
	// tile's bookkeeping.
	_     [64]byte
	stats Stats
	_     [16]byte // round the 48-byte Stats up to a full line
}

// New builds a cache of sizeKB with the given associativity and line
// size. sizeKB must yield a power-of-two number of sets.
func New(sizeKB, ways, lineBytes int) (*Cache, error) {
	if sizeKB <= 0 || ways <= 0 || lineBytes <= 0 {
		return nil, fmt.Errorf("cache: non-positive geometry (%d KB, %d ways, %d B)", sizeKB, ways, lineBytes)
	}
	lines := sizeKB * 1024 / lineBytes
	if lines%ways != 0 {
		return nil, fmt.Errorf("cache: %d lines not divisible by %d ways", lines, ways)
	}
	nsets := lines / ways
	if nsets == 0 || nsets&(nsets-1) != 0 {
		return nil, fmt.Errorf("cache: %d sets is not a power of two", nsets)
	}
	c := &Cache{
		totalSets: nsets, ways: ways, lineBytes: lineBytes,
		enabledWays: ways,
		sets:        make([][]line, nsets),
	}
	for i := range c.sets {
		c.sets[i] = make([]line, ways)
	}
	return c, nil
}

// Resize reconfigures the enabled portion: waysEnabled of the physical
// ways and totalSets>>setShift of the physical sets. Disabled lines are
// flushed (counted as evictions; dirty ones as writebacks).
func (c *Cache) Resize(waysEnabled int, setShift uint) error {
	if waysEnabled < 1 || waysEnabled > c.ways {
		return fmt.Errorf("cache: ways %d outside [1,%d]", waysEnabled, c.ways)
	}
	if c.totalSets>>setShift < 1 {
		return fmt.Errorf("cache: set shift %d disables every set", setShift)
	}
	c.enabledWays = waysEnabled
	c.setShift = setShift
	enabledSets := c.totalSets >> setShift
	for si := range c.sets {
		for wi := range c.sets[si] {
			ln := &c.sets[si][wi]
			if !ln.valid {
				continue
			}
			if si >= enabledSets || wi >= waysEnabled {
				if ln.dirty {
					c.stats.Writebacks++
				}
				c.stats.Evictions++
				ln.valid = false
				ln.dirty = false
			}
		}
	}
	return nil
}

// EnabledKB reports the currently enabled capacity.
func (c *Cache) EnabledKB() int {
	return (c.totalSets >> c.setShift) * c.enabledWays * c.lineBytes / 1024
}

// SizeKB reports the physical capacity.
func (c *Cache) SizeKB() int { return c.totalSets * c.ways * c.lineBytes / 1024 }

// setIndex maps a line address to its (enabled) set.
func (c *Cache) setIndex(lineAddr uint64) int {
	enabled := uint64(c.totalSets >> c.setShift)
	return int(lineAddr & (enabled - 1))
}

func (c *Cache) tag(lineAddr uint64) uint64 {
	shift := uint(bits.TrailingZeros64(uint64(c.totalSets >> c.setShift)))
	return lineAddr >> shift
}

// AccessResult describes one access's outcome.
type AccessResult struct {
	Hit bool
	// Evicted is set when a valid line was displaced; EvictedLine is its
	// line address and EvictedDirty whether it needed a writeback.
	Evicted      bool
	EvictedLine  uint64
	EvictedDirty bool
}

// Access looks up lineAddr, filling it on a miss (allocate-on-miss for
// both reads and writes) and applying LRU replacement within the enabled
// ways. write marks the line dirty.
func (c *Cache) Access(lineAddr uint64, write bool) AccessResult {
	c.stats.Accesses++
	c.stamp++
	si := c.setIndex(lineAddr)
	tg := c.tag(lineAddr)
	set := c.sets[si]
	// Hit path.
	for wi := 0; wi < c.enabledWays; wi++ {
		if set[wi].valid && set[wi].tag == tg {
			set[wi].lru = c.stamp
			if write {
				set[wi].dirty = true
			}
			c.stats.Hits++
			return AccessResult{Hit: true}
		}
	}
	// Miss: find a victim among enabled ways (invalid first, else LRU).
	c.stats.Misses++
	victim := 0
	var oldest uint64 = ^uint64(0)
	found := false
	for wi := 0; wi < c.enabledWays; wi++ {
		if !set[wi].valid {
			victim = wi
			found = true
			break
		}
		if set[wi].lru < oldest {
			oldest = set[wi].lru
			victim = wi
		}
	}
	res := AccessResult{}
	v := &set[victim]
	if !found && v.valid {
		res.Evicted = true
		res.EvictedDirty = v.dirty
		res.EvictedLine = c.reconstruct(v.tag, si)
		c.stats.Evictions++
		if v.dirty {
			c.stats.Writebacks++
		}
	}
	*v = line{tag: tg, valid: true, dirty: write, lru: c.stamp}
	return res
}

// reconstruct rebuilds a line address from tag and set index.
func (c *Cache) reconstruct(tag uint64, setIdx int) uint64 {
	shift := uint(bits.TrailingZeros64(uint64(c.totalSets >> c.setShift)))
	return tag<<shift | uint64(setIdx)
}

// Contains reports whether lineAddr is currently cached (no LRU update).
func (c *Cache) Contains(lineAddr uint64) bool {
	si := c.setIndex(lineAddr)
	tg := c.tag(lineAddr)
	for wi := 0; wi < c.enabledWays; wi++ {
		if c.sets[si][wi].valid && c.sets[si][wi].tag == tg {
			return true
		}
	}
	return false
}

// Invalidate drops lineAddr if present (coherence), reporting whether it
// was present and dirty.
func (c *Cache) Invalidate(lineAddr uint64) (present, dirty bool) {
	si := c.setIndex(lineAddr)
	tg := c.tag(lineAddr)
	for wi := 0; wi < c.enabledWays; wi++ {
		ln := &c.sets[si][wi]
		if ln.valid && ln.tag == tg {
			present, dirty = true, ln.dirty
			ln.valid = false
			ln.dirty = false
			c.stats.Invalidations++
			return present, dirty
		}
	}
	return false, false
}

// Flush invalidates everything, counting writebacks for dirty lines.
func (c *Cache) Flush() (writebacks int) {
	for si := range c.sets {
		for wi := range c.sets[si] {
			ln := &c.sets[si][wi]
			if ln.valid {
				if ln.dirty {
					writebacks++
					c.stats.Writebacks++
				}
				ln.valid = false
				ln.dirty = false
			}
		}
	}
	return writebacks
}

// Stats returns the cumulative counters.
func (c *Cache) Stats() Stats { return c.stats }
