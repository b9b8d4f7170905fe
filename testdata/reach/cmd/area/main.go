package main

import "fix/internal/shape"

func main() { println(shape.Total(shape.Square{Side: 2})) }
