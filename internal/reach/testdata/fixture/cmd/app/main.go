package main

import (
	"fmt"

	"fixture/lib"
)

func main() {
	var s lib.Shape = lib.Square{Side: 2}
	fmt.Println(s.Area(), lib.NewBox(3).Value(), lib.Open(lib.Options{Set: 1}))
}
