module github.com/vanlan/vifi/benchmark

go 1.24

require github.com/vanlan/vifi v0.0.0

replace github.com/vanlan/vifi => ../
