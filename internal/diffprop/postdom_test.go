package diffprop

import (
	"testing"

	"repro/internal/circuits"
	"repro/internal/netlist"
)

// bruteIPDom computes the immediate post-dominator table from the
// definition: d post-dominates n when removing d cuts n off from every
// primary output, and n's immediate post-dominator is the post-dominator
// that every other one post-dominates. One reverse search from the outputs
// per removed net finds everything that still reaches an output without it.
func bruteIPDom(t *testing.T, c *netlist.Circuit) []int {
	t.Helper()
	n := c.NumNets()
	// reaches returns the nets with a path to an output that avoids cut
	// (cut = -1 removes nothing).
	reaches := func(cut int) []bool {
		seen := make([]bool, n)
		var stack []int
		for _, o := range c.Outputs {
			if o != cut && !seen[o] {
				seen[o] = true
				stack = append(stack, o)
			}
		}
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, f := range c.Gates[v].Fanin {
				if f != cut && !seen[f] {
					seen[f] = true
					stack = append(stack, f)
				}
			}
		}
		return seen
	}
	live := reaches(-1)
	pdom := make([][]bool, n) // pdom[n][d]: d post-dominates n
	for v := range pdom {
		pdom[v] = make([]bool, n)
	}
	for d := 0; d < n; d++ {
		without := reaches(d)
		for v := 0; v < n; v++ {
			pdom[v][d] = v != d && live[v] && !without[v]
		}
	}
	want := make([]int, n)
	for v := 0; v < n; v++ {
		if !live[v] {
			want[v] = noPO
			continue
		}
		want[v] = top
		for d := 0; d < n; d++ {
			if !pdom[v][d] {
				continue
			}
			immediate := true
			for o := 0; o < n; o++ {
				if pdom[v][o] && o != d && !pdom[d][o] {
					immediate = false
					break
				}
			}
			if immediate {
				if want[v] != top {
					t.Fatalf("net %s has two immediate post-dominators, %s and %s",
						c.NetName(v), c.NetName(want[v]), c.NetName(d))
				}
				want[v] = d
			}
		}
	}
	return want
}

// TestPostDominators checks the engine's post-dominator table against the
// brute-force definition on every catalog circuit, on the XOR-expanded
// c499s (the C1355 topology), and on a circuit with nets that reach no
// output; and checks that a non-output net feeding one gate pin maps to
// that gate.
func TestPostDominators(t *testing.T) {
	dangling := netlist.New("dangling")
	a := dangling.AddInput("a")
	b := dangling.AddInput("b")
	x := dangling.AddGate("x", netlist.And, a, b)
	y := dangling.AddGate("y", netlist.Not, x)
	dangling.AddGate("dead", netlist.Or, a, y)
	dangling.MarkOutput(dangling.AddGate("z", netlist.Nand, a, b))
	for _, name := range append(circuits.Names(), "c499s_xnand", "dangling") {
		c := dangling
		if name != "dangling" {
			c = exactnessCircuit(name)
		}
		t.Run(name, func(t *testing.T) {
			e, err := New(c, nil)
			if err != nil {
				t.Fatal(err)
			}
			w := e.Circuit
			want := bruteIPDom(t, w)
			dead := 0
			for v, d := range want {
				if got := e.PostDominator(v); got != d {
					t.Fatalf("ipdom(%s) = %d, want %d", w.NetName(v), got, d)
				}
				if d == noPO {
					dead++
				}
				if fo := w.Fanout()[v]; len(fo) == 1 && !w.IsOutput(v) && d != noPO && d != fo[0] {
					t.Fatalf("single-consumer net %s maps to %d, not its consumer %d", w.NetName(v), d, fo[0])
				}
			}
			if name == "dangling" && dead != 3 {
				t.Fatalf("%d nets marked as reaching no output, want 3 (x, y, dead)", dead)
			}
		})
	}
}
