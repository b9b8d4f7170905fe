package main

import (
	"fix/internal/shape"
)

func main() { println(shape.Used(shape.Square{Side: 2}).Total) }
