// Package shape is the reach check's fixture: a function the program calls,
// a method it reaches only through an interface, one function no program
// links, and an allow-listed one with a helper only it calls.
package shape

type Shape interface{ Area() int }

type Square struct{ Side int }

func (s Square) Area() int { return s.Side * s.Side }

func Total(shapes ...Shape) int {
	total := 0
	for _, s := range shapes {
		total += s.Area()
	}
	return total
}

func Unused() int { return 0 }

func Allowed() int { return helper() + 1 }

func helper() int { return 1 }
