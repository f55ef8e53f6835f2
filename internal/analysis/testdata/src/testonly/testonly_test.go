package fixture

import "testing"

func TestPlanted(t *testing.T) {
	if Planted() != 2 || countdown(3) != 0 || (circle{}).Area() != 3 {
		t.Fatal("fixture")
	}
	Reset()
	Bare()
}
