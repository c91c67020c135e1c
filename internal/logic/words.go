package logic

import "fmt"

// WordCode is the operation of one word-wide instruction.
type WordCode uint8

// Word-wide operations. WNot reads only A.
const (
	WAnd WordCode = iota
	WOr
	WNand
	WNor
	WNot
)

// WordOp is one straight-line instruction over a slot array:
// s[Dst] = Code(s[A], s[B]). Each slot packs 64 independent Boolean
// assignments, one per bit, so one pass of a program evaluates 64
// input vectors at once (bit-parallel simulation).
type WordOp struct {
	Code      WordCode
	Dst, A, B int32
}

// RunWords executes ops in order over the slot array s.
func RunWords(ops []WordOp, s []uint64) {
	for _, o := range ops {
		a, b := s[o.A], s[o.B]
		var r uint64
		switch o.Code {
		case WAnd:
			r = a & b
		case WOr:
			r = a | b
		case WNand:
			r = ^(a & b)
		case WNor:
			r = ^(a | b)
		case WNot:
			r = ^a
		}
		s[o.Dst] = r
	}
}

// WordProgram evaluates a set of expressions bit-parallel under
// RunWords. Slot k holds the word of inputs[k] (the caller fills
// those); every instruction writes a fresh slot after them.
type WordProgram struct {
	Ops []WordOp
	// Roots[i] is the slot holding the i-th compiled expression.
	Roots []int32
	// Slots is the slot-array length RunWords needs.
	Slots int
}

// CompileWords lowers exprs over the ordered inputs into one
// straight-line WordProgram. Compilation is memoized by node identity,
// so a shared subexpression is computed once: an expression DAG costs
// one instruction per n-ary operand, not a walk of its exponentially
// larger tree. A variable listed twice in inputs binds to its last
// position; a variable missing from inputs is an error.
func CompileWords(inputs []string, exprs ...*Expr) (*WordProgram, error) {
	c := wordCompiler{
		vars: make(map[string]int32, len(inputs)),
		memo: map[*Expr]int32{},
		next: int32(len(inputs)),
	}
	for k, name := range inputs {
		c.vars[name] = int32(k)
	}
	p := &WordProgram{Roots: make([]int32, len(exprs))}
	for i, e := range exprs {
		s, err := c.slot(e)
		if err != nil {
			return nil, err
		}
		p.Roots[i] = s
	}
	p.Ops, p.Slots = c.ops, int(c.next)
	return p, nil
}

type wordCompiler struct {
	vars map[string]int32
	memo map[*Expr]int32
	ops  []WordOp
	next int32
}

func (c *wordCompiler) slot(e *Expr) (int32, error) {
	if s, ok := c.memo[e]; ok {
		return s, nil
	}
	var s int32
	var err error
	switch e.Op {
	case OpVar:
		var ok bool
		if s, ok = c.vars[e.Name]; !ok {
			return 0, fmt.Errorf("logic: variable %q is not an input", e.Name)
		}
	case OpNot:
		// A negated AND/OR folds into its last instruction (NAND/NOR);
		// a double negation is the operand itself.
		switch k := e.Kids[0]; k.Op {
		case OpNot:
			s, err = c.slot(k.Kids[0])
		case OpAnd:
			s, err = c.chain(k.Kids, WAnd, WNand)
		case OpOr:
			s, err = c.chain(k.Kids, WOr, WNor)
		default:
			var a int32
			if a, err = c.slot(k); err == nil {
				s = c.emit(WNot, a, a)
			}
		}
	case OpAnd:
		s, err = c.chain(e.Kids, WAnd, WAnd)
	case OpOr:
		s, err = c.chain(e.Kids, WOr, WOr)
	default:
		err = fmt.Errorf("logic: bad op %d", e.Op)
	}
	if err != nil {
		return 0, err
	}
	c.memo[e] = s
	return s, nil
}

// chain folds kids left to right with op, using last for the final
// instruction.
func (c *wordCompiler) chain(kids []*Expr, op, last WordCode) (int32, error) {
	if len(kids) < 2 {
		return 0, fmt.Errorf("logic: n-ary node with %d operands", len(kids))
	}
	acc, err := c.slot(kids[0])
	if err != nil {
		return 0, err
	}
	for i, k := range kids[1:] {
		b, err := c.slot(k)
		if err != nil {
			return 0, err
		}
		code := op
		if i == len(kids)-2 {
			code = last
		}
		acc = c.emit(code, acc, b)
	}
	return acc, nil
}

func (c *wordCompiler) emit(code WordCode, a, b int32) int32 {
	d := c.next
	c.next++
	c.ops = append(c.ops, WordOp{Code: code, Dst: d, A: a, B: b})
	return d
}
