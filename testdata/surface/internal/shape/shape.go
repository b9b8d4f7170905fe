// Package shape is the surface check's fixture: an export with a caller, one
// without, one allow-listed, a method another package calls only through an
// interface, and a type that only appears in a called function's result.
package shape

type Shape interface{ Area() int }

type Square struct{ Side int }

func (s Square) Area() int { return s.Side * s.Side }

type Sum struct{ Total int }

func Used(shapes ...Shape) Sum {
	var sum Sum
	for _, s := range shapes {
		sum.Total += s.Area()
	}
	return sum
}

func Unused() int { return 0 }

func Allowed() int { return 1 }
