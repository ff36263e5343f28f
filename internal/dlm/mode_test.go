package dlm

import "testing"

func TestModeProperties(t *testing.T) {
	cases := []struct {
		m       Mode
		isWrite bool
		canRead bool
	}{
		{PR, false, true},
		{NBW, true, false},
		{BW, true, false},
		{PW, true, true},
		{ModeNone, false, false},
	}
	for _, c := range cases {
		if c.m.IsWrite() != c.isWrite {
			t.Errorf("%v.IsWrite() = %v, want %v", c.m, c.m.IsWrite(), c.isWrite)
		}
		if c.m.CanRead() != c.canRead {
			t.Errorf("%v.CanRead() = %v, want %v", c.m, c.m.CanRead(), c.canRead)
		}
	}
}

func TestModeValid(t *testing.T) {
	for _, m := range []Mode{PR, NBW, BW, PW} {
		if !m.Valid() {
			t.Errorf("%v not valid", m)
		}
	}
	if ModeNone.Valid() || Mode(5).Valid() || Mode(6).Valid() || Mode(99).Valid() {
		t.Error("invalid modes reported valid")
	}
}

func TestModeStrings(t *testing.T) {
	for m, want := range map[Mode]string{
		PR: "PR", NBW: "NBW", BW: "BW", PW: "PW", ModeNone: "none",
	} {
		if m.String() != want {
			t.Errorf("String(%d) = %q, want %q", m, m.String(), want)
		}
	}
}

// TestCovers verifies the severity ordering of Fig. 9: PW covers
// everything SeqDLM, BW covers the write-only modes below it, and PR/NBW
// cover only themselves.
func TestCovers(t *testing.T) {
	covers := map[Mode][]Mode{
		PW:  {PR, NBW, BW, PW},
		BW:  {NBW, BW},
		NBW: {NBW},
		PR:  {PR},
	}
	all := []Mode{PR, NBW, BW, PW}
	for m, list := range covers {
		want := map[Mode]bool{}
		for _, n := range list {
			want[n] = true
		}
		for _, n := range all {
			if m.Covers(n) != want[n] {
				t.Errorf("%v.Covers(%v) = %v, want %v", m, n, m.Covers(n), want[n])
			}
		}
	}
}

func TestUpgradeLattice(t *testing.T) {
	cases := []struct{ a, b, want Mode }{
		{PR, NBW, PW},
		{NBW, PR, PW},
		{PR, BW, PW},
		{NBW, BW, BW},
		{BW, NBW, BW},
		{PR, PW, PW},
		{NBW, PW, PW},
		{BW, PW, PW},
		{PR, PR, PR},
		{NBW, NBW, NBW},
		{BW, BW, BW},
		{PW, PW, PW},
	}
	for _, c := range cases {
		if got := Upgrade(c.a, c.b); got != c.want {
			t.Errorf("Upgrade(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

// TestCompatibleTableII enumerates the full LCM of Table II. The only
// Y cells are PR×PR; the only state-dependent cells are NBW/BW requests
// against a granted NBW, compatible exactly when it is CANCELING.
func TestCompatibleTableII(t *testing.T) {
	modes := []Mode{PR, NBW, BW, PW}
	type key struct {
		req, granted Mode
		state        State
	}
	want := map[key]bool{}
	for _, r := range modes {
		for _, g := range modes {
			for _, st := range []State{Granted, Canceling} {
				want[key{r, g, st}] = false
			}
		}
	}
	want[key{PR, PR, Granted}] = true
	want[key{PR, PR, Canceling}] = true
	want[key{NBW, NBW, Canceling}] = true
	want[key{BW, NBW, Canceling}] = true

	for k, w := range want {
		if got := Compatible(k.req, k.granted, k.state); got != w {
			t.Errorf("Compatible(%v, %v %v) = %v, want %v", k.req, k.granted, k.state, got, w)
		}
	}
}

// TestCompatibleLegacy: PR and PW, the modes the baselines lock with,
// form the traditional read/write matrix.
func TestCompatibleLegacy(t *testing.T) {
	if !Compatible(PR, PR, Granted) || !Compatible(PR, PR, Canceling) {
		t.Error("PR must be compatible with PR")
	}
	// The traditional write lock conflicts with everything in both
	// states: normal grant only.
	for _, g := range []Mode{PR, PW} {
		for _, st := range []State{Granted, Canceling} {
			if Compatible(PW, g, st) {
				t.Errorf("Compatible(PW, %v %v) must be false", g, st)
			}
		}
	}
	if Compatible(PR, PW, Canceling) {
		t.Error("PR vs canceling PW must be incompatible (reads wait for flush)")
	}
}

func TestDowngradeRoutes(t *testing.T) {
	cases := []struct {
		m     Mode
		wrote bool
		want  Mode
	}{
		{BW, true, NBW},
		{BW, false, NBW},
		{PW, true, NBW},
		{PW, false, PR},
		{NBW, true, ModeNone},
		{PR, false, ModeNone},
	}
	for _, c := range cases {
		if got := Downgrade(c.m, c.wrote); got != c.want {
			t.Errorf("Downgrade(%v, wrote=%v) = %v, want %v", c.m, c.wrote, got, c.want)
		}
	}
}

// TestSelectMode verifies the deterministic selection rules of Fig. 10.
func TestSelectMode(t *testing.T) {
	if SelectMode(true, false, false) != PR {
		t.Error("read must select PR")
	}
	if SelectMode(true, true, true) != PR {
		t.Error("read selects PR regardless of other flags")
	}
	if SelectMode(false, true, false) != PW {
		t.Error("write with implicit read must select PW")
	}
	if SelectMode(false, true, true) != PW {
		t.Error("implicit read dominates multi-resource")
	}
	if SelectMode(false, false, true) != BW {
		t.Error("multi-resource write must select BW")
	}
	if SelectMode(false, false, false) != NBW {
		t.Error("plain write must select NBW")
	}
}

// TestLegacyModeMapping: every baseline reads under PR and writes under
// PW, and serves exactly those two modes (MapMode's fixed points).
func TestLegacyModeMapping(t *testing.T) {
	for _, p := range []Policy{Basic(), Lustre(), Datatype()} {
		for _, m := range []Mode{PR, NBW, BW, PW} {
			want := PW
			if m == PR {
				want = PR
			}
			if got := p.MapMode(m); got != want {
				t.Errorf("%s: MapMode(%v) = %v, want %v", p.Name, m, got, want)
			}
		}
	}
}

func TestPolicies(t *testing.T) {
	s := SeqDLM()
	if !s.EarlyGrant || !s.EarlyRevocation || !s.Conversion || s.Legacy || !s.CacheLocks {
		t.Errorf("SeqDLM policy wrong: %+v", s)
	}
	b := Basic()
	if b.EarlyGrant || b.EarlyRevocation || b.Conversion || !b.Legacy || !b.CacheLocks {
		t.Errorf("Basic policy wrong: %+v", b)
	}
	l := Lustre()
	if l.Expand != ExpandLustre || l.LustreCapBytes != 32<<20 || l.LustreLockThreshold != 32 {
		t.Errorf("Lustre policy wrong: %+v", l)
	}
	d := Datatype()
	if d.Expand != ExpandNone || d.CacheLocks {
		t.Errorf("Datatype policy wrong: %+v", d)
	}
	if s.MapMode(NBW) != NBW || b.MapMode(NBW) != PW || b.MapMode(PR) != PR {
		t.Error("MapMode wrong")
	}
}

// TestLCMProperties checks structural properties of the compatibility
// matrix across every mode pair:
//  1. monotonicity — entering CANCELING never makes a granted lock MORE
//     restrictive (early grant only ever opens compatibility);
//  2. no two write locks are ever compatible while one is GRANTED;
//  3. a request is never compatible with a granted lock that Covers a
//     mode it conflicts with.
func TestLCMProperties(t *testing.T) {
	all := []Mode{PR, NBW, BW, PW}
	for _, req := range all {
		for _, g := range all {
			if Compatible(req, g, Granted) && !Compatible(req, g, Canceling) {
				t.Errorf("canceling reduced compatibility for (%v, %v)", req, g)
			}
			if req.IsWrite() && g.IsWrite() && Compatible(req, g, Granted) {
				t.Errorf("write-write compatible while granted: (%v, %v)", req, g)
			}
		}
	}
}

// TestUpgradeProperties: the upgrade target covers both inputs, and the
// lattice join is commutative and idempotent.
func TestUpgradeProperties(t *testing.T) {
	seq := []Mode{PR, NBW, BW, PW}
	for _, a := range seq {
		for _, b := range seq {
			u := Upgrade(a, b)
			if !u.Covers(a) || !u.Covers(b) {
				t.Errorf("Upgrade(%v, %v) = %v does not cover both", a, b, u)
			}
			if u != Upgrade(b, a) {
				t.Errorf("Upgrade not commutative for (%v, %v)", a, b)
			}
			if Upgrade(u, u) != u {
				t.Errorf("Upgrade not idempotent at %v", u)
			}
		}
	}
}

// TestCoversTransitive: Covers must be a partial order (reflexive,
// transitive).
func TestCoversTransitive(t *testing.T) {
	all := []Mode{PR, NBW, BW, PW}
	for _, a := range all {
		if !a.Covers(a) {
			t.Errorf("%v does not cover itself", a)
		}
		for _, b := range all {
			for _, c := range all {
				if a.Covers(b) && b.Covers(c) && !a.Covers(c) {
					t.Errorf("Covers not transitive: %v > %v > %v", a, b, c)
				}
			}
		}
	}
}
