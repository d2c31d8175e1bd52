// Package noc models Angstrom's adaptive on-chip network (§4.2.2): a 2-D
// mesh with three software-exposed adaptations:
//
//   - EVC, express virtual channels [8]: flits moving straight through a
//     router bypass buffering and arbitration, cutting both latency and
//     buffer energy on non-turning hops;
//   - BAN, bandwidth-adaptive networks [9]: each pair of opposing
//     unidirectional links is backed by bidirectional wires whose
//     capacity a hardware allocator splits between the two directions,
//     with the split policy exposed to software;
//   - AOR, application-aware oblivious routing [22]: per-(source,
//     destination) routing-table entries choose between the two
//     deadlock-free dimension-ordered paths (XY or YX, kept on disjoint
//     virtual channels as in O1TURN) to minimize the worst link load for
//     the application's measured flow matrix. The routing table is
//     memory-mapped, so the SEEC runtime can recompute routes online.
//
// The model is flow-level: traffic is a matrix of long-running flows,
// link contention follows an M/M/1-style queueing approximation, and
// per-flit energy is accounted per pipeline stage. This is the right
// granularity for the chip simulator (which needs latencies and energies
// as functions of configuration), while the unit tests pin down the
// relative effects the paper's citations report.
//
// The routing table and flow matrix are dense n×n slices indexed by
// src*n+dst (the memory-mapped layout real hardware would use), and
// per-pair latencies and flit energies are memoized in tables that are
// invalidated wholesale on reconfiguration. A warmed mesh therefore
// answers LatencyCycles/EnergyPJPerFlit with two array loads and no
// allocation — the property the trace-driven simulator's hot loop
// depends on.
package noc

import (
	"fmt"
	"math"
)

// Direction of a link out of a router.
type Direction int

// The four mesh directions.
const (
	East Direction = iota
	West
	North
	South
	numDirs
)

// Route selects a dimension order for one (src, dst) pair.
type Route int

// The two deadlock-free dimension-ordered routes.
const (
	RouteXY Route = iota
	RouteYX
)

// Config describes the network hardware.
type Config struct {
	Width, Height int
	// RouterCycles is the full router pipeline latency per hop
	// (buffer write + arbitration + switch traversal).
	RouterCycles float64
	// LinkCycles is the wire traversal latency per hop.
	LinkCycles float64
	// EVC enables express-channel bypass on straight-through hops.
	EVC bool
	// EVCCycles is the bypassed router latency on express hops.
	EVCCycles float64
	// BAN enables the bandwidth allocator on bidirectional link pairs.
	BAN bool
	// LinkBandwidth is flits/cycle per unidirectional link (per
	// direction without BAN; a pair shares 2× this with BAN).
	LinkBandwidth float64
	// BufferPJ, SwitchPJ, LinkPJ are per-flit energies by stage.
	BufferPJ, SwitchPJ, LinkPJ float64
}

// DefaultConfig returns a w×h mesh with parameters typical of low-swing
// 32 nm NoCs (cf. [8]): 3-cycle routers, 1-cycle links, 1 flit/cycle.
func DefaultConfig(w, h int) Config {
	return Config{
		Width: w, Height: h,
		RouterCycles: 3, LinkCycles: 1,
		EVCCycles:     1,
		LinkBandwidth: 1,
		BufferPJ:      1.5, SwitchPJ: 1.0, LinkPJ: 2.0,
	}
}

// Mesh is the network instance: topology, routing table, registered
// flows and computed link loads.
type Mesh struct {
	cfg Config
	n   int

	table  []Route   // AOR routing table, n×n; default XY
	flows  []float64 // flow matrix, n×n, flits/cycle
	nflows int       // live (nonzero, src≠dst) entries in flows

	loads    []float64 // flits/cycle per directed link
	capacity []float64 // effective capacity per directed link
	fresh    bool      // loads/capacity up to date

	// Memoized per-pair results. An entry i is valid iff its epoch
	// matches the mesh's: invalidation is a single counter bump, never an
	// O(n²) clear. Latencies depend on routes + flows + capacities;
	// energies only on routes.
	lat      []float64
	latEpoch []uint32
	epoch    uint32

	energy   []float64
	engEpoch []uint32
	eEpoch   uint32
}

// NewMesh builds a mesh. Width and height must be positive.
func NewMesh(cfg Config) (*Mesh, error) {
	if cfg.Width < 1 || cfg.Height < 1 {
		return nil, fmt.Errorf("noc: bad mesh %dx%d", cfg.Width, cfg.Height)
	}
	if cfg.LinkBandwidth <= 0 {
		return nil, fmt.Errorf("noc: non-positive link bandwidth")
	}
	n := cfg.Width * cfg.Height
	m := &Mesh{
		cfg:      cfg,
		n:        n,
		table:    make([]Route, n*n),
		flows:    make([]float64, n*n),
		lat:      make([]float64, n*n),
		latEpoch: make([]uint32, n*n),
		epoch:    1,
		energy:   make([]float64, n*n),
		engEpoch: make([]uint32, n*n),
		eEpoch:   1,
	}
	m.loads = make([]float64, n*int(numDirs))
	m.capacity = make([]float64, n*int(numDirs))
	return m, nil
}

// Config returns the mesh configuration.
func (m *Mesh) Config() Config { return m.cfg }

func (m *Mesh) xy(node int) (x, y int) { return node % m.cfg.Width, node / m.cfg.Width }

func (m *Mesh) node(x, y int) int { return y*m.cfg.Width + x }

// Hops is the Manhattan distance between two tiles.
func (m *Mesh) Hops(src, dst int) int {
	sx, sy := m.xy(src)
	dx, dy := m.xy(dst)
	return abs(sx-dx) + abs(sy-dy)
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// linkID identifies the directed link leaving node in direction d.
func (m *Mesh) linkID(node int, d Direction) int { return node*int(numDirs) + int(d) }

// pairID maps a directed link to its undirected wire pair and tells
// which side it is.
func (m *Mesh) pair(node int, d Direction) (pairKey [3]int, side int) {
	x, y := m.xy(node)
	switch d {
	case East:
		return [3]int{x, y, 0}, 0
	case West:
		return [3]int{x - 1, y, 0}, 1
	case North:
		return [3]int{x, y, 1}, 0
	default: // South
		return [3]int{x, y - 1, 1}, 1
	}
}

// invalidateLat drops every memoized latency (flows, routes or
// capacities changed).
func (m *Mesh) invalidateLat() { m.epoch++ }

// invalidateEnergy drops every memoized flit energy (routes changed).
func (m *Mesh) invalidateEnergy() { m.eEpoch++ }

// SetRoute writes one routing-table entry (the software interface AOR
// exposes).
func (m *Mesh) SetRoute(src, dst int, r Route) {
	m.table[src*m.n+dst] = r
	m.fresh = false
	m.invalidateLat()
	m.invalidateEnergy()
}

// RouteOf reads the routing-table entry (default XY).
func (m *Mesh) RouteOf(src, dst int) Route {
	return m.table[src*m.n+dst]
}

// pathIter walks the dimension-ordered route for one (src, dst) pair hop
// by hop without allocating — the hot loops (latency memo fill, load
// accumulation, AOR placement) all drive it.
type pathIter struct {
	m            *Mesh
	x, y, dx, dy int
	xFirst       bool
	started      bool

	node int
	dir  Direction
	turn bool
}

// pathFrom positions an iterator at src heading for dst under the
// current routing table.
func (m *Mesh) pathFrom(src, dst int) pathIter {
	sx, sy := m.xy(src)
	dx, dy := m.xy(dst)
	return pathIter{
		m: m, x: sx, y: sy, dx: dx, dy: dy,
		xFirst: m.table[src*m.n+dst] == RouteXY,
	}
}

// next advances to the following hop, reporting false past the last.
func (it *pathIter) next() bool {
	var d Direction
	switch {
	case it.xFirst && it.x != it.dx, !it.xFirst && it.y == it.dy && it.x != it.dx:
		d = East
		if it.dx < it.x {
			d = West
		}
	case it.y != it.dy:
		d = North
		if it.dy < it.y {
			d = South
		}
	default:
		return false
	}
	it.node = it.m.node(it.x, it.y)
	it.turn = it.started && d != it.dir
	it.dir = d
	it.started = true
	switch d {
	case East:
		it.x++
	case West:
		it.x--
	case North:
		it.y++
	default:
		it.y--
	}
	return true
}

// hop is one step of a path (kept for tests and tooling; the hot paths
// use pathIter directly).
type hop struct {
	node int
	dir  Direction
	turn bool // direction differs from the previous hop's
}

// path expands the dimension-ordered route for (src, dst).
func (m *Mesh) path(src, dst int) []hop {
	hops := make([]hop, 0, m.Hops(src, dst))
	for it := m.pathFrom(src, dst); it.next(); {
		hops = append(hops, hop{node: it.node, dir: it.dir, turn: it.turn})
	}
	return hops
}

// SetFlow registers (or replaces) a flow's demand in flits/cycle.
// Zero removes the flow.
func (m *Mesh) SetFlow(src, dst int, rate float64) error {
	if src < 0 || src >= m.n || dst < 0 || dst >= m.n {
		return fmt.Errorf("noc: flow endpoints (%d,%d) outside mesh", src, dst)
	}
	if rate < 0 {
		return fmt.Errorf("noc: negative flow rate %g", rate)
	}
	k := src*m.n + dst
	if src != dst {
		switch {
		case m.flows[k] == 0 && rate > 0:
			m.nflows++
		case m.flows[k] > 0 && rate == 0:
			m.nflows--
		}
	}
	m.flows[k] = rate
	m.fresh = false
	m.invalidateLat()
	return nil
}

// ClearFlows drops all registered flows.
func (m *Mesh) ClearFlows() {
	for i := range m.flows {
		m.flows[i] = 0
	}
	m.nflows = 0
	m.fresh = false
	m.invalidateLat()
}

// forEachFlow visits every live flow (src ≠ dst, rate > 0) in row-major
// order.
func (m *Mesh) forEachFlow(fn func(src, dst int, rate float64)) {
	if m.nflows == 0 {
		return
	}
	for src := 0; src < m.n; src++ {
		row := m.flows[src*m.n : (src+1)*m.n]
		for dst, rate := range row {
			if rate > 0 && src != dst {
				fn(src, dst, rate)
			}
		}
	}
}

// recompute fills link loads and (BAN-aware) capacities.
func (m *Mesh) recompute() {
	if m.fresh {
		return
	}
	for i := range m.loads {
		m.loads[i] = 0
	}
	m.forEachFlow(func(src, dst int, rate float64) {
		for it := m.pathFrom(src, dst); it.next(); {
			m.loads[m.linkID(it.node, it.dir)] += rate
		}
	})
	// Capacity: fixed per direction, or BAN-split by demand.
	if !m.cfg.BAN {
		for i := range m.capacity {
			m.capacity[i] = m.cfg.LinkBandwidth
		}
	} else {
		type sides struct {
			load [2]float64
			link [2]int
		}
		pairs := make(map[[3]int]*sides)
		for node := 0; node < m.n; node++ {
			x, y := m.xy(node)
			for d := East; d < numDirs; d++ {
				// Skip links that leave the mesh.
				if (d == East && x == m.cfg.Width-1) || (d == West && x == 0) ||
					(d == North && y == m.cfg.Height-1) || (d == South && y == 0) {
					continue
				}
				key, side := m.pair(node, d)
				p, ok := pairs[key]
				if !ok {
					p = &sides{link: [2]int{-1, -1}}
					pairs[key] = p
				}
				id := m.linkID(node, d)
				p.load[side] = m.loads[id]
				p.link[side] = id
			}
		}
		for _, p := range pairs {
			total := p.load[0] + p.load[1]
			share0 := 0.5
			if total > 0 {
				share0 = clamp(p.load[0]/total, 0.1, 0.9)
			}
			if p.link[0] >= 0 {
				m.capacity[p.link[0]] = 2 * m.cfg.LinkBandwidth * share0
			}
			if p.link[1] >= 0 {
				m.capacity[p.link[1]] = 2 * m.cfg.LinkBandwidth * (1 - share0)
			}
		}
	}
	m.fresh = true
	m.invalidateLat()
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// utilization of a directed link (load / effective capacity), capped
// just below saturation for the queueing formula.
func (m *Mesh) utilization(id int) float64 {
	cap := m.capacity[id]
	if cap <= 0 {
		return 0.99
	}
	return math.Min(m.loads[id]/cap, 0.99)
}

// LatencyCycles is the end-to-end latency of one packet from src to dst
// under the current flows: per-hop pipeline (with EVC bypass on
// straight hops), link traversal, and M/M/1-style queueing delay on
// loaded links. It satisfies the cache.Network interface. Results are
// memoized per pair until the next reconfiguration, so the simulator's
// per-access calls cost two array loads.
func (m *Mesh) LatencyCycles(src, dst int) float64 {
	if src == dst {
		return 0
	}
	m.recompute()
	k := src*m.n + dst
	if m.latEpoch[k] == m.epoch {
		return m.lat[k]
	}
	total := 0.0
	first := true
	for it := m.pathFrom(src, dst); it.next(); {
		router := m.cfg.RouterCycles
		if m.cfg.EVC && !first && !it.turn {
			router = m.cfg.EVCCycles
		}
		first = false
		id := m.linkID(it.node, it.dir)
		util := m.utilization(id)
		queue := util / (1 - util) / m.capacity[id]
		total += router + m.cfg.LinkCycles + queue
	}
	m.lat[k] = total
	m.latEpoch[k] = m.epoch
	return total
}

// EnergyPJPerFlit is the per-flit transport energy from src to dst:
// every hop pays switch + link; hops that cannot bypass also pay buffer.
// Memoized per pair until the routing table changes.
func (m *Mesh) EnergyPJPerFlit(src, dst int) float64 {
	if src == dst {
		return 0
	}
	k := src*m.n + dst
	if m.engEpoch[k] == m.eEpoch {
		return m.energy[k]
	}
	total := 0.0
	first := true
	for it := m.pathFrom(src, dst); it.next(); {
		e := m.cfg.SwitchPJ + m.cfg.LinkPJ
		if !(m.cfg.EVC && !first && !it.turn) {
			e += m.cfg.BufferPJ
		}
		first = false
		total += e
	}
	m.energy[k] = total
	m.engEpoch[k] = m.eEpoch
	return total
}

// MaxUtilization reports the worst directed-link load/capacity ratio
// under the current flows — the quantity AOR minimizes. Unlike the
// queueing model, it is not capped: values above 1 mean an oversubscribed
// link.
func (m *Mesh) MaxUtilization() float64 {
	m.recompute()
	worst := 0.0
	for id := range m.loads {
		if m.loads[id] == 0 || m.capacity[id] <= 0 {
			continue
		}
		if u := m.loads[id] / m.capacity[id]; u > worst {
			worst = u
		}
	}
	return worst
}

// AvgFlowLatency is the demand-weighted mean packet latency across all
// registered flows.
func (m *Mesh) AvgFlowLatency() float64 {
	m.recompute()
	num, den := 0.0, 0.0
	m.forEachFlow(func(src, dst int, rate float64) {
		num += rate * m.LatencyCycles(src, dst)
		den += rate
	})
	if den == 0 {
		return 0
	}
	return num / den
}
