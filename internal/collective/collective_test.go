package collective

import "testing"

// checkValid asserts every transfer stays inside the rank space and
// never sends to itself.
func checkValid(t *testing.T, cfg Config, steps []Step) {
	t.Helper()
	ranks := cfg.Ranks()
	for si, step := range steps {
		if len(step) == 0 {
			t.Fatalf("%s: step %d is empty", cfg.Pattern, si)
		}
		for _, tr := range step {
			if tr.From < 0 || tr.From >= ranks || tr.To < 0 || tr.To >= ranks {
				t.Fatalf("%s step %d: transfer %+v outside %d ranks", cfg.Pattern, si, tr, ranks)
			}
			if tr.From == tr.To {
				t.Fatalf("%s step %d: self-transfer %+v", cfg.Pattern, si, tr)
			}
			if tr.Bytes <= 0 {
				t.Fatalf("%s step %d: empty transfer %+v", cfg.Pattern, si, tr)
			}
		}
	}
}

// patterns lists every Pattern in presentation order.
var patterns = []Pattern{Ring, Tree, AllToAll, PS}

func TestStepsValidAcrossPatterns(t *testing.T) {
	for _, p := range patterns {
		for _, n := range []int{2, 3, 4, 5, 8, 16} {
			for _, chunks := range []int{1, 3} {
				cfg := Config{Pattern: p, Participants: n, MessageBytes: 1 << 20, Chunks: chunks}
				checkValid(t, cfg, Steps(cfg))
			}
		}
	}
}

func TestRingStepCount(t *testing.T) {
	cfg := Config{Pattern: Ring, Participants: 4, MessageBytes: 8192, Chunks: 2}
	steps := Steps(cfg)
	// 2 chunk rounds x 2(N-1) steps, N transfers each.
	if len(steps) != 12 {
		t.Fatalf("ring steps = %d, want 12", len(steps))
	}
	for i, s := range steps {
		if len(s) != 4 {
			t.Fatalf("ring step %d has %d transfers, want 4", i, len(s))
		}
		for _, tr := range s {
			if tr.To != (tr.From+1)%4 {
				t.Fatalf("ring step %d: %+v not a successor send", i, tr)
			}
			if tr.Bytes != 1024 { // 8192/(4 ranks * 2 chunks)
				t.Fatalf("ring segment = %d, want 1024", tr.Bytes)
			}
		}
	}
}

func TestTreeStructure(t *testing.T) {
	// N=8: reduce sweeps of 4, 2, 1 senders, then the mirror broadcast.
	cfg := Config{Pattern: Tree, Participants: 8, MessageBytes: 1 << 20}
	steps := Steps(cfg)
	wantSizes := []int{4, 2, 1, 1, 2, 4}
	if len(steps) != len(wantSizes) {
		t.Fatalf("tree steps = %d, want %d", len(steps), len(wantSizes))
	}
	for i, s := range steps {
		if len(s) != wantSizes[i] {
			t.Fatalf("tree step %d has %d transfers, want %d", i, len(s), wantSizes[i])
		}
	}
	// Reduce: every non-root rank sends exactly once across the sweep.
	sent := make(map[int]int)
	for _, s := range steps[:3] {
		for _, tr := range s {
			sent[tr.From]++
		}
	}
	for r := 1; r < 8; r++ {
		if sent[r] != 1 {
			t.Fatalf("tree reduce: rank %d sent %d times, want 1", r, sent[r])
		}
	}
	if sent[0] != 0 {
		t.Fatal("tree reduce: root sent")
	}
	// Broadcast step i mirrors reduce step (2 - i) with flipped direction.
	for i := 0; i < 3; i++ {
		red, bc := steps[2-i], steps[3+i]
		for j := range red {
			if bc[j].From != red[j].To || bc[j].To != red[j].From {
				t.Fatalf("broadcast step %d not the mirror of reduce: %+v vs %+v", i, bc[j], red[j])
			}
		}
	}
}

func TestTreeNonPowerOfTwo(t *testing.T) {
	cfg := Config{Pattern: Tree, Participants: 5, MessageBytes: 1 << 20}
	steps := Steps(cfg)
	checkValid(t, cfg, steps)
	// Every non-root rank must send exactly once in the reduce half.
	sent := make(map[int]bool)
	for _, s := range steps[:len(steps)/2] {
		for _, tr := range s {
			if sent[tr.From] {
				t.Fatalf("rank %d sent twice in reduce", tr.From)
			}
			sent[tr.From] = true
		}
	}
	for r := 1; r < 5; r++ {
		if !sent[r] {
			t.Fatalf("rank %d never reduced", r)
		}
	}
}

func TestAllToAllCoverage(t *testing.T) {
	cfg := Config{Pattern: AllToAll, Participants: 4, MessageBytes: 3 << 10}
	steps := Steps(cfg)
	if len(steps) != 1 {
		t.Fatalf("alltoall steps = %d, want 1", len(steps))
	}
	// Every ordered pair appears exactly once, each share M/(N-1).
	seen := make(map[[2]int]bool)
	for _, tr := range steps[0] {
		key := [2]int{tr.From, tr.To}
		if seen[key] {
			t.Fatalf("pair %v appears twice", key)
		}
		seen[key] = true
		if tr.Bytes != 1024 {
			t.Fatalf("alltoall share = %d, want 1024", tr.Bytes)
		}
	}
	if len(seen) != 12 {
		t.Fatalf("alltoall covers %d pairs, want 12", len(seen))
	}
}

func TestPSIncastShape(t *testing.T) {
	cfg := Config{Pattern: PS, Participants: 3, MessageBytes: 1 << 20, Chunks: 2}
	if cfg.Ranks() != 4 {
		t.Fatalf("ps ranks = %d, want 4 (3 workers + server)", cfg.Ranks())
	}
	steps := Steps(cfg)
	if len(steps) != 4 { // 2 chunks x (push, pull)
		t.Fatalf("ps steps = %d, want 4", len(steps))
	}
	for i, s := range steps {
		for _, tr := range s {
			if i%2 == 0 && tr.To != 3 {
				t.Fatalf("push step %d: %+v not toward server", i, tr)
			}
			if i%2 == 1 && tr.From != 3 {
				t.Fatalf("pull step %d: %+v not from server", i, tr)
			}
		}
	}
}

func TestStepsDeterministic(t *testing.T) {
	for _, p := range patterns {
		cfg := Config{Pattern: p, Participants: 6, MessageBytes: 1 << 20, Chunks: 2}
		a, b := Steps(cfg), Steps(cfg)
		if len(a) != len(b) {
			t.Fatalf("%s: nondeterministic step count", p)
		}
		for i := range a {
			for j := range a[i] {
				if a[i][j] != b[i][j] {
					t.Fatalf("%s: step %d transfer %d differs", p, i, j)
				}
			}
		}
	}
}

func TestParsePattern(t *testing.T) {
	for _, p := range patterns {
		got, err := ParsePattern(string(p))
		if err != nil || got != p {
			t.Fatalf("ParsePattern(%q) = %v, %v", p, got, err)
		}
	}
	if _, err := ParsePattern("butterfly"); err == nil {
		t.Fatal("ParsePattern accepted an unknown pattern")
	}
}
