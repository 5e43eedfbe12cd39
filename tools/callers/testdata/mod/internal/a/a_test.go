package a

import "testing"

func TestOnlyTested(t *testing.T) {
	if (T{}).OnlyTested() != 1 || Unread != 4 {
		t.Fatal("fixture")
	}
}
