// Command bench is loaded only for its references: nothing here is reported.
package main

import "example.com/lib"

func main() { println(lib.UsedByBench()) }

func unused() {}
