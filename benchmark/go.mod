module insitu/benchmark

go 1.22

require insitu v0.0.0

replace insitu => ../
