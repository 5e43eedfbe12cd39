package main

import "fix/internal/a"

func main() { a.Frozen() }
