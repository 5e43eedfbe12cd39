// Package a holds one declaration for each verdict of the callers gate.
package a

// T is named by main.go.
type T struct{}

// OnlyTested is called by a_test.go alone: flagged.
func (T) OnlyTested() int { return 1 }

// Used is called by main.go: passes.
func (T) Used() int { return 2 }

// Show implements main.go's shower interface, which nothing calls it
// through: passes.
func (T) Show() {}

// Tabled has no caller but a table row: passes.
func Tabled() {}

// Frozen is called by the nested module bench/: passes.
func Frozen() {}

// Recursive calls only itself, inside its own declaration: flagged.
func Recursive(n int) int {
	if n == 0 {
		return 0
	}
	return Recursive(n - 1)
}

// Limit is read by main.go: passes.
const Limit = 3

// Unread has no reader: flagged.
var Unread = 4
