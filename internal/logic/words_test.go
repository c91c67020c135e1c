package logic

import (
	"fmt"
	"testing"
)

// TestCompileWordsMatchesEval: every row of every expression's truth
// table, evaluated 64 rows per word, equals the tree walk.
func TestCompileWordsMatchesEval(t *testing.T) {
	inputs := []string{"A", "B", "C", "D", "E", "F", "G"}
	srcs := []string{"A", "!A", "A''", "AB+C", "(A+B)(C+D)", "!(AB+CD)", "!(A+B+C)",
		"ABC+D", "A*B' + A'*B", "!!(A+!B)E", "(A+B)'(C+D)'+FG", "G"}
	exprs := make([]*Expr, len(srcs))
	for i, s := range srcs {
		exprs[i] = MustParse(s)
	}
	p, err := CompileWords(inputs, exprs...)
	if err != nil {
		t.Fatal(err)
	}
	rows := 1 << len(inputs)
	s := make([]uint64, p.Slots)
	for base := 0; base < rows; base += 64 {
		for k := range inputs {
			s[k] = 0
			for l := 0; l < 64; l++ {
				s[k] |= uint64((base+l)>>uint(k)&1) << uint(l)
			}
		}
		RunWords(p.Ops, s)
		for l := 0; l < 64; l++ {
			env := map[string]bool{}
			for k, name := range inputs {
				env[name] = (base+l)>>uint(k)&1 == 1
			}
			for i, e := range exprs {
				if got := s[p.Roots[i]]>>uint(l)&1 == 1; got != e.Eval(env) {
					t.Fatalf("%s on row %d: words %v, Eval %v", srcs[i], base+l, got, !got)
				}
			}
		}
	}
}

// TestCompileWordsSharesDAG: a 200-deep chain in which every node is
// used twice is a tree of 2^200 leaves but a DAG of a few hundred nodes;
// memoization compiles it to a few ops per level.
func TestCompileWordsSharesDAG(t *testing.T) {
	x := Var("X")
	for i := 0; i < 200; i++ {
		s := Var(fmt.Sprintf("S%d", i%4))
		x = Or(And(x, s), And(Not(x), Not(s)))
	}
	p, err := CompileWords([]string{"X", "S0", "S1", "S2", "S3"}, x)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Ops) > 200*5 {
		t.Fatalf("%d ops for a 200-level DAG", len(p.Ops))
	}
}

func TestCompileWordsUnknownVariable(t *testing.T) {
	if _, err := CompileWords([]string{"A"}, MustParse("A+B")); err == nil {
		t.Fatal("a variable missing from inputs must be an error")
	}
}
