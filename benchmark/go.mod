module soda/benchmark

go 1.22

require soda v0.0.0

replace soda => ../
