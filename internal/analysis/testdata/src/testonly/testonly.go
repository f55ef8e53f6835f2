// Package fixture exercises the testonly analyzer.
package fixture

import (
	"fmt"
	"io"
)

func init() {
	var w io.Writer = sink{}
	fmt.Fprintln(w, describe(square{}), label(1), Used())
	Injected()
}

func Used() int { return 1 }

func Planted() int { return 2 } // want `nothing outside tests uses Planted`

// countdown's only non-test reference is its own recursive call.
func countdown(n int) int { // want `nothing outside tests uses countdown`
	if n == 0 {
		return 0
	}
	return countdown(n - 1)
}

type shape interface{ Area() float64 }

func describe(s shape) float64 { return s.Area() }

type square struct{} // a shape: describe reaches its Area

func (square) Area() float64 { return 1 }

type circle struct{} // Area has the wrong result type: no shape

func (circle) Area() int { return 3 } // want `nothing outside tests uses circle.Area`

type sink struct{} // init converts it to io.Writer

func (sink) Write(p []byte) (int, error) { return len(p), nil }

type label int // fmt.Stringer is always in the used set

func (l label) String() string { return fmt.Sprint(int(l)) }

// FailNext is a fault injector that tests of another package drive.
//
//spin:testhook storage fault injection for crash tests
func FailNext() { arm() }

func arm() {} // only a hook's body uses it, which keeps it alive

// Reset is a hook that only another hook calls.
//
//spin:testhook storage fault injection for crash tests
func Reset() { FailNext() }

//spin:testhook
func Bare() {} // want `//spin:testhook on Bare needs a reason`

//spin:testhook storage fault injection for crash tests
func Injected() {} // want `Injected is marked //spin:testhook but non-test code uses it`
