package main

import "fix/internal/a"

type shower interface{ Show() }

var _ shower = a.T{}

func main() { println(a.T{}.Used(), a.Limit) }
