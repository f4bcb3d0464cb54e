package cache

import (
	"fmt"
	"testing"
)

func mustNew(t *testing.T, cfg Config) *Cache {
	t.Helper()
	if err := cfg.Validate(); err != nil {
		t.Fatalf("Validate(%v) = %v", cfg, err)
	}
	return New(cfg)
}

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"dm-8k", Config{Size: 8 << 10, LineSize: 16, Assoc: 1}, true},
		{"4way-64k", Config{Size: 64 << 10, LineSize: 16, Assoc: 4}, true},
		{"fully-assoc", Config{Size: 1 << 10, LineSize: 16, Assoc: 64}, true},
		{"one-line", Config{Size: 16, LineSize: 16, Assoc: 1}, true},
		{"zero-size", Config{Size: 0, LineSize: 16, Assoc: 1}, false},
		{"negative-size", Config{Size: -8, LineSize: 16, Assoc: 1}, false},
		{"non-pow2-size", Config{Size: 3 << 10, LineSize: 16, Assoc: 1}, false},
		{"zero-line", Config{Size: 8 << 10, LineSize: 0, Assoc: 1}, false},
		{"non-pow2-line", Config{Size: 8 << 10, LineSize: 24, Assoc: 1}, false},
		{"line-exceeds-size", Config{Size: 16, LineSize: 32, Assoc: 1}, false},
		{"zero-assoc", Config{Size: 8 << 10, LineSize: 16, Assoc: 0}, false},
		{"assoc-not-divisor", Config{Size: 8 << 10, LineSize: 16, Assoc: 3}, false},
		{"assoc-exceeds-lines", Config{Size: 64, LineSize: 16, Assoc: 8}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate()
			if tc.ok && err != nil {
				t.Errorf("Validate() = %v, want nil", err)
			}
			if !tc.ok && err == nil {
				t.Errorf("Validate() = nil, want error")
			}
		})
	}
}

func TestConfigDerived(t *testing.T) {
	cfg := Config{Size: 64 << 10, LineSize: 16, Assoc: 4}
	if got := cfg.Lines(); got != 4096 {
		t.Errorf("Lines() = %d, want 4096", got)
	}
	if got := cfg.Sets(); got != 1024 {
		t.Errorf("Sets() = %d, want 1024", got)
	}
}

func TestConfigString(t *testing.T) {
	cases := []struct {
		cfg  Config
		want string
	}{
		{Config{Size: 8 << 10, LineSize: 16, Assoc: 1}, "8KB/16B/DM"},
		{Config{Size: 64 << 10, LineSize: 16, Assoc: 4, Policy: Random}, "64KB/16B/4-way(random)"},
		{Config{Size: 2 << 20, LineSize: 32, Assoc: 8, Policy: LRU}, "2MB/32B/8-way(lru)"},
	}
	for _, tc := range cases {
		if got := tc.cfg.String(); got != tc.want {
			t.Errorf("String() = %q, want %q", got, tc.want)
		}
	}
}

func TestFormatSize(t *testing.T) {
	cases := []struct {
		b    int64
		want string
	}{
		{512, "512B"},
		{1 << 10, "1KB"},
		{256 << 10, "256KB"},
		{1 << 20, "1MB"},
		{3 << 20, "3MB"},
		{1536, "1536B"}, // not a whole KB multiple
	}
	for _, tc := range cases {
		if got := FormatSize(tc.b); got != tc.want {
			t.Errorf("FormatSize(%d) = %q, want %q", tc.b, got, tc.want)
		}
	}
}

func TestReplacementPolicyString(t *testing.T) {
	if Random.String() != "random" || LRU.String() != "lru" || FIFO.String() != "fifo" {
		t.Errorf("policy names wrong: %v %v %v", Random, LRU, FIFO)
	}
	if got := ReplacementPolicy(99).String(); got != "ReplacementPolicy(99)" {
		t.Errorf("unknown policy = %q", got)
	}
}

func TestNewPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New with invalid config did not panic")
		}
	}()
	New(Config{Size: 3, LineSize: 16, Assoc: 1})
}

func TestBasicHitMiss(t *testing.T) {
	c := mustNew(t, Config{Size: 1 << 10, LineSize: 16, Assoc: 1})
	hit, v := c.Access(0x1000)
	if hit {
		t.Error("first access hit; want miss")
	}
	if v.Valid {
		t.Error("first access displaced a victim from an empty cache")
	}
	hit, _ = c.Access(0x1000)
	if !hit {
		t.Error("second access missed; want hit")
	}
	// Same line, different offset: still a hit.
	hit, _ = c.Access(0x100F)
	if !hit {
		t.Error("same-line access missed; want hit")
	}
	// Next line: miss.
	hit, _ = c.Access(0x1010)
	if hit {
		t.Error("next-line access hit; want miss")
	}
	st := c.Stats()
	if st.Accesses != 4 || st.Hits != 2 || st.Misses != 2 {
		t.Errorf("stats = %+v, want 4/2/2", st)
	}
	if got := st.MissRate(); got != 0.5 {
		t.Errorf("MissRate() = %v, want 0.5", got)
	}
}

func TestDirectMappedConflict(t *testing.T) {
	// 1KB direct-mapped, 16B lines: 64 sets. Addresses 1KB apart collide.
	c := mustNew(t, Config{Size: 1 << 10, LineSize: 16, Assoc: 1})
	a, b := Addr(0x0000), Addr(0x0400)
	c.Access(a)
	hit, v := c.Access(b)
	if hit {
		t.Error("conflicting access hit")
	}
	if !v.Valid || v.Line != c.Line(a) {
		t.Errorf("victim = %+v, want line of %#x", v, a)
	}
	if c.Contains(a) {
		t.Error("evicted line still reported resident")
	}
	if !c.Contains(b) {
		t.Error("inserted line not resident")
	}
}

func TestSetAssociativeHoldsConflicts(t *testing.T) {
	// 4-way: four conflicting lines all fit.
	c := mustNew(t, Config{Size: 4 << 10, LineSize: 16, Assoc: 4, Policy: LRU})
	sets := c.Config().Sets() // 64
	var addrs []Addr
	for i := 0; i < 4; i++ {
		addrs = append(addrs, Addr(i*sets*16))
	}
	for _, a := range addrs {
		c.Access(a)
	}
	for _, a := range addrs {
		if hit, _ := c.Access(a); !hit {
			t.Errorf("address %#x missed in 4-way cache holding 4 conflicting lines", a)
		}
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	c := mustNew(t, Config{Size: 64, LineSize: 16, Assoc: 4, Policy: LRU})
	// Single set of 4 ways.
	a := []Addr{0x000, 0x040, 0x080, 0x0C0, 0x100}
	for _, x := range a[:4] {
		c.Access(x)
	}
	// Touch a[0] so a[1] is now LRU.
	c.Access(a[0])
	_, v := c.Access(a[4])
	if !v.Valid || v.Line != c.Line(a[1]) {
		t.Errorf("LRU evicted %v, want line of %#x", v, a[1])
	}
	if !c.Contains(a[0]) {
		t.Error("recently-touched line was evicted")
	}
}

func TestFIFOEvictionOrder(t *testing.T) {
	c := mustNew(t, Config{Size: 64, LineSize: 16, Assoc: 4, Policy: FIFO})
	a := []Addr{0x000, 0x040, 0x080, 0x0C0, 0x100, 0x140}
	for _, x := range a[:4] {
		c.Access(x)
	}
	// Touching a[0] must NOT save it under FIFO.
	c.Access(a[0])
	_, v := c.Access(a[4])
	if !v.Valid || v.Line != c.Line(a[0]) {
		t.Errorf("FIFO evicted %v, want line of %#x (insertion order)", v, a[0])
	}
	_, v = c.Access(a[5])
	if !v.Valid || v.Line != c.Line(a[1]) {
		t.Errorf("FIFO evicted %v next, want line of %#x", v, a[1])
	}
}

// TestFIFOPointerPastSixteenBits checks the FIFO fill pointer of a set
// with more than 2^16 ways. The ways and the pointer are set directly,
// since filling the set through Access scans it once per insertion: the
// lines are in way order and the next victim is way 2^16-1.
func TestFIFOPointerPastSixteenBits(t *testing.T) {
	const ways = 1 << 17
	c := mustNew(t, Config{Size: ways, LineSize: 1, Assoc: ways, Policy: FIFO})
	for w := range c.tags {
		c.tags[w], c.valid[w] = LineAddr(w), true
	}
	c.repl.fifo[0] = 1<<16 - 1
	for i := 1<<16 - 1; i <= 1<<16+1; i++ {
		v := c.InsertLine(LineAddr(ways + i))
		if !v.Valid || v.Line != LineAddr(i) {
			t.Fatalf("insertion into way %d evicted %+v, want line %d", i, v, i)
		}
	}
}

func TestRandomReplacementStaysInSet(t *testing.T) {
	c := mustNew(t, Config{Size: 64, LineSize: 16, Assoc: 4, Policy: Random})
	a := []Addr{0x000, 0x040, 0x080, 0x0C0}
	for _, x := range a {
		c.Access(x)
	}
	_, v := c.Access(0x100)
	if !v.Valid {
		t.Fatal("full set produced no victim")
	}
	found := false
	for _, x := range a {
		if v.Line == c.Line(x) {
			found = true
		}
	}
	if !found {
		t.Errorf("random victim %v is not one of the resident lines", v)
	}
}

func TestRandomReplacementDeterministic(t *testing.T) {
	run := func() []LineAddr {
		c := mustNew(t, Config{Size: 64, LineSize: 16, Assoc: 4, Policy: Random})
		var victims []LineAddr
		for i := 0; i < 100; i++ {
			_, v := c.Access(Addr(i * 64))
			if v.Valid {
				victims = append(victims, v.Line)
			}
		}
		return victims
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("victim counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("victim %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestLookupDoesNotAllocate(t *testing.T) {
	c := mustNew(t, Config{Size: 1 << 10, LineSize: 16, Assoc: 1})
	if c.Lookup(0x2000) {
		t.Error("Lookup hit in empty cache")
	}
	if c.Contains(0x2000) {
		t.Error("Lookup allocated on miss")
	}
	st := c.Stats()
	if st.Accesses != 1 || st.Misses != 1 {
		t.Errorf("Lookup miss not counted: %+v", st)
	}
	c.Insert(0x2000)
	if !c.Lookup(0x2000) {
		t.Error("Lookup missed a resident line")
	}
}

func TestInsertIdempotentAndUncounted(t *testing.T) {
	c := mustNew(t, Config{Size: 1 << 10, LineSize: 16, Assoc: 1})
	if v := c.Insert(0x3000); v.Valid {
		t.Errorf("Insert into empty cache displaced %v", v)
	}
	if v := c.Insert(0x3000); v.Valid {
		t.Errorf("re-Insert displaced %v", v)
	}
	if got := c.Stats().Accesses; got != 0 {
		t.Errorf("Insert counted %d demand accesses, want 0", got)
	}
	if c.ResidentLines() != 1 {
		t.Errorf("ResidentLines() = %d, want 1", c.ResidentLines())
	}
}

func TestInvalidate(t *testing.T) {
	c := mustNew(t, Config{Size: 1 << 10, LineSize: 16, Assoc: 1})
	c.Insert(0x4000)
	if !c.Invalidate(0x4000) {
		t.Error("Invalidate of resident line reported false")
	}
	if c.Contains(0x4000) {
		t.Error("line resident after Invalidate")
	}
	if c.Invalidate(0x4000) {
		t.Error("Invalidate of absent line reported true")
	}
}

func TestFlushAndVisit(t *testing.T) {
	c := mustNew(t, Config{Size: 1 << 10, LineSize: 16, Assoc: 2, Policy: LRU})
	for i := 0; i < 10; i++ {
		c.Insert(Addr(i * 16))
	}
	if got := c.ResidentLines(); got != 10 {
		t.Fatalf("ResidentLines() = %d, want 10", got)
	}
	seen := map[LineAddr]bool{}
	c.VisitLines(func(l LineAddr) { seen[l] = true })
	if len(seen) != 10 {
		t.Errorf("VisitLines saw %d lines, want 10", len(seen))
	}
	c.Flush()
	if got := c.ResidentLines(); got != 0 {
		t.Errorf("ResidentLines() after Flush = %d, want 0", got)
	}
}

func TestResetStats(t *testing.T) {
	c := mustNew(t, Config{Size: 1 << 10, LineSize: 16, Assoc: 1})
	c.Access(0)
	c.ResetStats()
	if st := c.Stats(); st != (Stats{}) {
		t.Errorf("stats after reset = %+v", st)
	}
	if !c.Contains(0) {
		t.Error("ResetStats flushed contents")
	}
}

func TestMissRateEmpty(t *testing.T) {
	if got := (Stats{}).MissRate(); got != 0 {
		t.Errorf("empty MissRate() = %v, want 0", got)
	}
}

func TestCapacitySweepMonotone(t *testing.T) {
	// A fixed pseudo-random trace should miss monotonically less in
	// bigger fully-associative LRU caches (stack inclusion property).
	mkTrace := func() []Addr {
		s := uint64(42)
		var tr []Addr
		for i := 0; i < 20000; i++ {
			s ^= s << 13
			s ^= s >> 7
			s ^= s << 17
			tr = append(tr, Addr(s%4096)*16)
		}
		return tr
	}
	trace := mkTrace()
	var prev uint64 = 1 << 62
	for _, kb := range []int64{1, 2, 4, 8, 16, 32, 64} {
		cfg := Config{Size: kb << 10, LineSize: 16, Assoc: int(kb << 10 / 16), Policy: LRU}
		c := mustNew(t, cfg)
		for _, a := range trace {
			c.Access(a)
		}
		m := c.Stats().Misses
		if m > prev {
			t.Errorf("%dKB fully-assoc LRU misses %d > smaller cache's %d (violates stack inclusion)", kb, m, prev)
		}
		prev = m
	}
}

func ExampleCache() {
	c := New(Config{Size: 1 << 10, LineSize: 16, Assoc: 1})
	hit, _ := c.Access(0x1234)
	fmt.Println("first access hit:", hit)
	hit, _ = c.Access(0x1234)
	fmt.Println("second access hit:", hit)
	// Output:
	// first access hit: false
	// second access hit: true
}

func TestLFSRDistribution(t *testing.T) {
	// The pseudo-random victim way should use all ways of a set with
	// roughly even frequency (the 16-bit LFSR is full-period; a heavily
	// skewed pick would warp set-associative miss rates).
	c := mustNew(t, Config{Size: 256, LineSize: 16, Assoc: 4, Policy: Random})
	counts := map[LineAddr]int{}
	// One set (4 ways, 4 sets -> use set 0 lines only: line%4==0).
	lines := []Addr{0x000, 0x040, 0x080, 0x0C0, 0x100}
	for _, a := range lines[:4] {
		c.Access(a)
	}
	for i := 0; i < 4000; i++ {
		victim := lines[i%5]
		_, v := c.Access(victim)
		if v.Valid {
			counts[v.Line]++
		}
	}
	if len(counts) < 4 {
		t.Errorf("random replacement only ever evicted %d distinct lines", len(counts))
	}
	for l, n := range counts {
		if n == 0 {
			t.Errorf("line %v never evicted", l)
		}
	}
}
