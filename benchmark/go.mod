module parapre/benchmark

go 1.22

require parapre v0.0.0

replace parapre => ../
