package pattern

import (
	"testing"
	"testing/quick"
)

func TestAllHas40Patterns(t *testing.T) {
	all := All()
	if len(all) != 40 {
		t.Fatalf("All() returned %d patterns, want 40", len(all))
	}
	names := make(map[string]bool)
	for _, p := range all {
		if names[p.String()] {
			t.Errorf("duplicate pattern name %q", p)
		}
		names[p.String()] = true
	}
	// First half must be the non-inverted patterns, second half the
	// inverses, pairwise.
	for i := 0; i < 20; i++ {
		a, b := all[i], all[i+20]
		if a.Inverted || !b.Inverted {
			t.Errorf("pattern %d inversion layout wrong: %v / %v", i, a, b)
		}
		if a.Kind != b.Kind || a.Index != b.Index {
			t.Errorf("pattern %d and its inverse differ structurally: %v / %v", i, a, b)
		}
	}
}

func TestInverseFlipsEveryBit(t *testing.T) {
	f := func(kindRaw uint8, idx uint8, row uint16, col uint16) bool {
		p := Pattern{Kind: Kind(kindRaw % 5), Index: int(idx % 16)}
		return p.Bit(int(row), int(col))^p.Inverse().Bit(int(row), int(col)) == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSolidPatterns(t *testing.T) {
	for row := 0; row < 4; row++ {
		for col := 0; col < 4; col++ {
			if Solid1().Bit(row, col) != 1 {
				t.Fatal("Solid1 must store 1 everywhere")
			}
			if Solid0().Bit(row, col) != 0 {
				t.Fatal("Solid0 must store 0 everywhere")
			}
		}
	}
}

func TestCheckeredAlternatesBothDirections(t *testing.T) {
	p := Checkered1()
	for row := 0; row < 8; row++ {
		for col := 0; col < 8; col++ {
			if p.Bit(row, col) == p.Bit(row, col+1) {
				t.Fatalf("checkered does not alternate across columns at (%d,%d)", row, col)
			}
			if p.Bit(row, col) == p.Bit(row+1, col) {
				t.Fatalf("checkered does not alternate across rows at (%d,%d)", row, col)
			}
		}
	}
	if Checkered0().Bit(0, 0) != 0 || Checkered1().Bit(0, 0) != 1 {
		t.Error("checkered polarity at origin wrong")
	}
}

func TestStripePatterns(t *testing.T) {
	rs := Pattern{Kind: KindRowStripe}
	cs := Pattern{Kind: KindColStripe}
	for row := 0; row < 8; row++ {
		for col := 0; col < 8; col++ {
			if rs.Bit(row, col) != uint64(row&1) {
				t.Fatalf("row stripe wrong at (%d,%d)", row, col)
			}
			if cs.Bit(row, col) != uint64(col&1) {
				t.Fatalf("col stripe wrong at (%d,%d)", row, col)
			}
		}
	}
}

func TestWalkingPatternsHaveExactlyOneOnePerPeriod(t *testing.T) {
	for k := 0; k < 16; k++ {
		p := Walking1(k)
		count := 0
		for col := 0; col < 16; col++ {
			if p.Bit(0, col) == 1 {
				count++
				if col != k {
					t.Errorf("WALK1_%d has its 1 at column %d", k, col)
				}
			}
		}
		if count != 1 {
			t.Errorf("WALK1_%d has %d ones per period, want 1", k, count)
		}
		// The walking-0 counterpart must have exactly one 0 per period.
		q := Walking0(k)
		zeros := 0
		for col := 0; col < 16; col++ {
			if q.Bit(0, col) == 0 {
				zeros++
			}
		}
		if zeros != 1 {
			t.Errorf("WALK0_%d has %d zeros per period, want 1", k, zeros)
		}
	}
}

// TestFillRowMatchesBit is the oracle for the word-at-a-time FillRow: every
// bit it writes must equal Bit, on both row parities of every pattern, at
// several widths, and for out-of-range walking indices and unknown kinds.
func TestFillRowMatchesBit(t *testing.T) {
	pats := All()
	for _, idx := range []int{-1, 16, 17} {
		pats = append(pats, Walking1(idx), Walking0(idx))
	}
	pats = append(pats, Pattern{Kind: Kind(99)}, Pattern{Kind: Kind(99), Inverted: true})
	for _, p := range pats {
		for _, row := range []int{0, 1, 2, 3, 4097} {
			for _, cols := range []int{64, 256, 4096} {
				data, err := p.FillRow(row, cols)
				if err != nil {
					t.Fatalf("%v: %v", p, err)
				}
				if len(data) != cols/64 {
					t.Fatalf("%v: FillRow(%d, %d) returned %d words", p, row, cols, len(data))
				}
				for col := 0; col < cols; col++ {
					got := (data[col>>6] >> uint(col&63)) & 1
					if want := p.Bit(row, col); got != want {
						t.Fatalf("%v (Index %d): row %d width %d: FillRow bit %d = %d, Bit = %d",
							p, p.Index, row, cols, col, got, want)
					}
				}
			}
		}
	}
}

func TestFillRowRejectsBadWidth(t *testing.T) {
	if _, err := Solid0().FillRow(0, 0); err == nil {
		t.Error("zero width accepted")
	}
	if _, err := Solid0().FillRow(0, 100); err == nil {
		t.Error("non-multiple-of-64 width accepted")
	}
}

func TestWalkingSet(t *testing.T) {
	ones := WalkingSet(false)
	zeros := WalkingSet(true)
	if len(ones) != 16 || len(zeros) != 16 {
		t.Fatalf("walking sets have %d and %d patterns, want 16 each", len(ones), len(zeros))
	}
	for i, p := range ones {
		if p.Inverted || p.Index != i {
			t.Errorf("walking-1 set entry %d = %v", i, p)
		}
	}
	for i, p := range zeros {
		if !p.Inverted || p.Index != i {
			t.Errorf("walking-0 set entry %d = %v", i, p)
		}
	}
}

func TestBestFor(t *testing.T) {
	if BestFor("A") != Solid0() {
		t.Error("BestFor(A) should be SOLID0")
	}
	if BestFor("B") != Checkered0() {
		t.Error("BestFor(B) should be CHECKERED0")
	}
	if BestFor("C") != Solid0() {
		t.Error("BestFor(C) should be SOLID0")
	}
}

func TestStringNames(t *testing.T) {
	cases := map[string]Pattern{
		"SOLID1":     Solid1(),
		"SOLID0":     Solid0(),
		"CHECKERED0": Checkered0(),
		"WALK1_5":    Walking1(5),
		"WALK0_11":   Walking0(11),
		"ROWSTRIPE1": {Kind: KindRowStripe},
		"COLSTRIPE0": {Kind: KindColStripe, Inverted: true},
	}
	for want, p := range cases {
		if p.String() != want {
			t.Errorf("String() = %q, want %q", p.String(), want)
		}
	}
}
